import sys
from pathlib import Path

# the benchmark measures the package source next to it, not an installed copy
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
