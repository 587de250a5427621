"""Check a trials.txt written by `simulate`: exit 0 when it holds
ROWS_PER_SETTING rows for each of settings 0..SETTINGS-1 and no others.

    python3 check_trial_rows.py TRIALS_TXT SETTINGS ROWS_PER_SETTING
"""

import collections
import sys

path, settings, per_setting = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
rows = [line.split() for line in open(path) if not line.startswith("#")]
per = collections.Counter(int(row[0]) for row in rows)
print(len(rows), "rows per setting", dict(per))
sys.exit(0 if per == {s: per_setting for s in range(settings)} else 1)
