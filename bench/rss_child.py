"""Run one dilastab CLI command in a fresh process and print its peak RSS.

    python3 bench/rss_child.py '<argv as a JSON list>'

Prints ru_maxrss in KiB as the last line; exits 1 unless the command exits
0 or 3.  dilastab must be importable (bench/run.py sets PYTHONPATH to src/).
"""

import json
import resource
import sys

from dilastab import cli

if __name__ == "__main__":
    code = cli.main(json.loads(sys.argv[1]))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    sys.exit(0 if code in (0, 3) else 1)
