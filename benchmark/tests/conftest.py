import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from workloads import use_checkout_source  # noqa: E402

use_checkout_source()
