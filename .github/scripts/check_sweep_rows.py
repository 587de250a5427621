"""Check a sweep.csv written by `sweep`: exit 0 when it holds ROWS rows,
each with E finite and |E| <= 1.

    python3 check_sweep_rows.py SWEEP_CSV ROWS
"""

import csv
import math
import sys

rows = list(csv.DictReader(open(sys.argv[1])))
bad = [row for row in rows if not (math.isfinite(float(row["E"])) and abs(float(row["E"])) <= 1)]
print(len(rows), "rows,", len(bad), "with E not finite or |E| > 1")
sys.exit(0 if len(rows) == int(sys.argv[2]) and not bad else 1)
