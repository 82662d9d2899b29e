"""Write bench/battery_reference.json from one run of the certificate battery.

    PYTHONPATH=src python3 bench/record_reference.py

The recorded values are what the battery workload checks every later run
against.  Re-record only in a change whose purpose is to move a certified
value, and say so in that change.
"""

from __future__ import annotations

import json

from halfharm.certificates import standard_certificates

from workloads import DRIFT_REL, REFERENCE_PATH


def drift_tolerance(value: float, certificate_tolerance: float) -> float:
    return min(certificate_tolerance, DRIFT_REL * max(1.0, abs(value)))


def main() -> None:
    entries = []
    for rep in standard_certificates():
        entries.append({
            "name": rep.name,
            "closed": rep.closed_value,
            "closed_tol": drift_tolerance(rep.closed_value, rep.tolerance),
            "oracle": rep.oracle_value,
            "oracle_tol": drift_tolerance(rep.oracle_value, rep.tolerance),
            "tolerance": rep.tolerance,
        })
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"drift_rel": DRIFT_REL, "certificates": entries}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
