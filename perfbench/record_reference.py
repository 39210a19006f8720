"""Record reference.json: every workload's answer on the fixed gate inputs.

    python3 perfbench/record_reference.py

Each benchmark run recomputes these answers and marks the run incorrect
if they differ beyond the tolerances in workloads.gate_mismatches.  Run
this only when the workloads' expected answers change on purpose.
"""

import json

import run

if __name__ == "__main__":
    run.import_package()
    import workloads

    reference = {name: workloads.gate_answer(w)
                 for name, w in workloads.WORKLOADS.items()}
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {run.REFERENCE}")
