# Bad-flag check for a CLI: runs BIN once per flag in FLAGS (a |-separated
# list), after the optional space-separated ARGS, and fails unless every run
# exits 2, the usage-error code.
#
#   cmake -DBIN=<program> ["-DARGS=--c=1 --d=2"] "-DFLAGS=--a=x|--b=y" \
#         -P expect_usage_error.cmake
string(REPLACE "|" ";" flags "${FLAGS}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
foreach(flag IN LISTS flags)
  execute_process(COMMAND "${BIN}" ${args} "${flag}" RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${flag}: exit ${rc}, want 2\n${err}")
  endif()
  message(STATUS "${flag}: exit 2: ${err}")
endforeach()
