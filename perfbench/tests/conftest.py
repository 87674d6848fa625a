import sys
from pathlib import Path

# The benchmark's modules live one level up and are run as scripts.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
