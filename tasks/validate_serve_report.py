#!/usr/bin/env python3
"""Validate a vgpu-serve report against tasks/serve_report.schema.json.

The shipped schema describes the report version vgpu-serve writes (2, the
fault-tolerance surface); any other version, 1 included, is rejected.

Reuses the stdlib-only schema walker from validate_verdicts.py and layers
the cross-field invariants a schema can't express:

- per-tenant counters reconcile with the job records (submitted = records,
  completed = ok records, cached/failed likewise, retried = records with
  attempts > 1, and the quota_wait_us sum);
- cache hits equal the number of cached job records, and misses are at
  least the number of distinct executed keys;
- every cached record has an uncached sibling with the same key and a
  byte-identical result (the whole point of deterministic caching);
- with any repeats in the queue the hit rate must be positive;
- every record claims at least one attempt, every failed record's
  attempt log ends in "give_up", the top-level degraded flag reconciles
  with per-job degraded flags and device_health rows, simulated_wait_us
  equals the sum of all backoff and quota waits, and the persistent-cache
  counters are all zero when persistence is disabled (loads never exceed
  hits when it is enabled).

Exit codes: 0 all valid, 1 schema/invariant violations, 2 usage error or a
report whose schema_version is not 2 (checked before anything else — such
a report is neither valid nor invalid, it is unreadable here).

Usage: validate_serve_report.py SCHEMA REPORT.json [REPORT.json ...]
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from validate_verdicts import validate  # noqa: E402

KNOWN_SCHEMA_VERSIONS = {2}


def cross_checks(doc, errors):
    jobs = doc.get("jobs", [])
    by_tenant = {}
    for j in jobs:
        s = by_tenant.setdefault(
            j["tenant"], {"submitted": 0, "completed": 0, "cached": 0,
                          "failed": 0, "retried": 0, "quota_wait_us": 0})
        s["submitted"] += 1
        s["completed"] += 1 if j["ok"] else 0
        s["cached"] += 1 if j["cached"] else 0
        s["failed"] += 0 if j["ok"] else 1
        s["retried"] += 1 if j["attempts"] > 1 else 0
        s["quota_wait_us"] += j["quota_wait_us"]

    reported = {t["tenant"]: t for t in doc.get("tenants", [])}
    if set(reported) != set(by_tenant):
        errors.append(f"tenants section {sorted(reported)} != job tenants "
                      f"{sorted(by_tenant)}")
    for name, want in by_tenant.items():
        got = reported.get(name)
        if got is None:
            continue
        for k, v in want.items():
            if got[k] != v:
                errors.append(f"tenant {name!r}: {k} is {got[k]}, "
                              f"job records say {v}")

    cache = doc.get("cache", {})
    cached_records = sum(1 for j in jobs if j["cached"])
    if cache.get("hits") != cached_records:
        errors.append(f"cache.hits {cache.get('hits')} != cached job records "
                      f"{cached_records}")
    executed_keys = {j["key"] for j in jobs if j["ok"] and not j["cached"]}
    if cache.get("misses", 0) < len(executed_keys):
        errors.append(f"cache.misses {cache.get('misses')} < distinct executed "
                      f"keys {len(executed_keys)}")

    # Deterministic caching: a cached record's bytes must equal the bytes of
    # the record that actually executed its key. With a persistent cache a
    # cached record may have no executed sibling in THIS run (it replayed
    # from a previous server's disk spill), so the orphan check only applies
    # when persistence is off.
    persistent = cache.get("persistent", {}).get("enabled", False)
    executed = {}
    for j in jobs:
        if j["ok"] and not j["cached"]:
            executed.setdefault(j["key"], j["result"])
    for j in jobs:
        if not j["cached"]:
            continue
        fresh = executed.get(j["key"])
        if fresh is None:
            if not persistent:
                errors.append(f"job {j['id']}: cached but no executed record "
                              f"shares key {j['key']}")
        elif fresh != j["result"]:
            errors.append(f"job {j['id']}: cached result differs from the "
                          f"executed result for key {j['key']}")

    ok_keys = [j["key"] for j in jobs if j["ok"]]
    repeats = len(ok_keys) - len(set(ok_keys))
    if repeats > 0 and cache.get("hits", 0) == 0:
        errors.append(f"{repeats} repeated keys in the queue but cache.hits "
                      f"is 0")

    for j in jobs:
        if not j["ok"]:
            log = j["attempt_log"]
            if not log or log[-1]["action"] != "give_up":
                errors.append(f"job {j['id']}: failed but attempt_log does "
                              f"not end in give_up")
        if j["cached"] and j["attempts"] != 1:
            errors.append(f"job {j['id']}: cached but attempts "
                          f"{j['attempts']} != 1")

    # Degraded reconciliation: the top-level flag, per-job flags, and the
    # health table must tell the same story.
    job_degraded = any(j["degraded"] for j in jobs)
    if doc["degraded"] != job_degraded:
        errors.append(f"degraded is {doc['degraded']} but job records say "
                      f"{job_degraded}")
    evicting = [h for h in doc["device_health"] if h["evicted_jobs"] > 0]
    if doc["degraded"] != bool(evicting):
        errors.append(f"degraded is {doc['degraded']} but device_health has "
                      f"{len(evicting)} evicting rows")
    for h in doc["device_health"]:
        if h["healthy"] != (h["evicted_jobs"] == 0):
            errors.append(f"device {h['device']}: healthy {h['healthy']} "
                          f"inconsistent with evicted_jobs {h['evicted_jobs']}")

    # Simulated waiting time is exactly the sum of every job's backoff and
    # quota wait (integer-valued, so float equality is exact).
    want_wait = sum(j["backoff_us"] + j["quota_wait_us"] for j in jobs)
    if doc["simulated_wait_us"] != want_wait:
        errors.append(f"simulated_wait_us {doc['simulated_wait_us']} != "
                      f"sum of job waits {want_wait}")

    persistent = cache["persistent"]
    if persistent["enabled"] != doc["config"]["persistent_cache"]:
        errors.append("cache.persistent.enabled != config.persistent_cache")
    if not persistent["enabled"]:
        for k in ("stores", "loads", "quarantined"):
            if persistent[k] != 0:
                errors.append(f"persistence disabled but persistent.{k} is "
                              f"{persistent[k]}")
    elif persistent["loads"] > cache["hits"]:
        errors.append(f"persistent.loads {persistent['loads']} > cache.hits "
                      f"{cache['hits']} (every disk load is served as a hit)")


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    with open(argv[1]) as f:
        schema = json.load(f)
    bad = 0
    for path in argv[2:]:
        with open(path) as f:
            doc = json.load(f)
        version = doc.get("schema_version")
        if version not in KNOWN_SCHEMA_VERSIONS:
            print(f"UNSUPPORTED {path}: schema_version {version!r} not in "
                  f"{sorted(KNOWN_SCHEMA_VERSIONS)}")
            return 2
        errors = []
        validate(doc, schema, schema, "$", errors)
        if not errors:
            cross_checks(doc, errors)
        if errors:
            bad += 1
            print(f"INVALID {path}")
            for e in errors:
                print(f"  {e}")
        else:
            jobs = doc["jobs"]
            hits = doc["cache"]["hits"]
            print(f"ok {path}: v{version}, {len(jobs)} jobs, {hits} served "
                  f"from cache")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
