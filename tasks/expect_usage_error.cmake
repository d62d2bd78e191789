# Bad-flag check for a CLI: runs BIN once per flag in FLAGS (a |-separated
# list) and fails unless every run exits 2, the usage-error code.
#
#   cmake -DBIN=<program> "-DFLAGS=--a=x|--b=y" -P expect_usage_error.cmake
string(REPLACE "|" ";" flags "${FLAGS}")
foreach(flag IN LISTS flags)
  execute_process(COMMAND "${BIN}" "${flag}" RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${flag}: exit ${rc}, want 2\n${err}")
  endif()
  message(STATUS "${flag}: exit 2: ${err}")
endforeach()
