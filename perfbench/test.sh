#!/usr/bin/env bash
# The benchmark's own tests: every workload's checks at tiny lengths, in
# both modes, plus the refusals.  Run from anywhere:
#   bash perfbench/test.sh
set -euo pipefail
cd "$(dirname "$0")/.."
status=0
for w in kv-read-mostly sim-list5k sim-hash10k; do
  for t in 0 1; do
    out=$(bash perfbench/run.sh --workload "$w" --seed 7 --trace "$t" --short | tail -n 1)
    # the result carries exactly the manifest's metrics of this mode, in
    # their units, as whole-number counts and finite values
    if python3 - "$out" "$t" <<'PY'
import json, math, sys
r = json.loads(sys.argv[1])
spec = json.load(open("BENCHMARK.json"))["per_layer" if sys.argv[2] == "1" else "end_to_end"]
want = {x["name"]: x["unit"] for x in spec}
got = {k: v["unit"] for k, v in r["metrics"].items()}
ok = (set(r) == {"correct", "attempted", "failed", "metrics"} and r["correct"] is True
      and isinstance(r["attempted"], int) and isinstance(r["failed"], int)
      and r["attempted"] >= 1 and got == want
      and all(math.isfinite(v["value"]) for v in r["metrics"].values())
      and (sys.argv[2] == "1" or all(v["value"] > 0 for v in r["metrics"].values())))
sys.exit(0 if ok else 1)
PY
    then
      echo "ok   $w trace=$t"
    else
      echo "FAIL $w trace=$t: $out"
      status=1
    fi
  done
done
# an unknown workload is refused without a result
if ./_build/default/perfbench/main.exe --workload nope >/dev/null 2>&1; then
  echo "FAIL unknown workload accepted"
  status=1
else
  echo "ok   unknown workload refused"
fi
exit $status
