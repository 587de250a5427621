"""Check a counts.csv of exact 4-channel distributions written by
`simulate --override trials=0`: exit 0 when it holds SETTINGS settings of
16 rows each, every probability finite and >= 0, each setting's summing
to 1 within 1e-12.

    python3 check_exact_rows.py COUNTS_CSV SETTINGS
"""

import collections
import math
import sys

rows = collections.defaultdict(list)
for line in open(sys.argv[1]):
    if not line.startswith("#"):
        rows[line.split()[0]].append(float(line.split()[4]))
ok = len(rows) == int(sys.argv[2]) and all(
    len(p) == 16 and all(math.isfinite(x) and x >= 0 for x in p)
    and abs(math.fsum(p) - 1) <= 1e-12 for p in rows.values())
print(len(rows), "settings of", sorted({len(p) for p in rows.values()}), "rows,",
      "each finite, >= 0 and summing to 1:", ok)
sys.exit(0 if ok else 1)
