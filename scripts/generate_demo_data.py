"""Regenerate the bundled demo inputs under data/.

The curve is synthetic (a published curve file should be supplied by the
user for real work).  The bundled ``synthetic_curve.14c`` is the reference
copy, so the script writes the curve only when that file is missing.  The
determination set draws 100 ages from a fixed three-phase mixture and
observes them through the curve as read back from that file, which
reproduces ``example_three_phase.csv`` byte for byte.

    PYTHONPATH=src python scripts/generate_demo_data.py
"""

from pathlib import Path

from carbcal.calcurve import load_curve
from carbcal.synthetic import (
    three_phase_determinations,
    wiggly_curve,
    write_curve_file,
    write_determination_file,
)


def generate(data: Path) -> None:
    """Write the demo curve (if missing) and determinations into ``data``."""
    data.mkdir(exist_ok=True)
    curve_path = data / "synthetic_curve.14c"
    if not curve_path.exists():
        write_curve_file(wiggly_curve(), curve_path)
        print(f"wrote {curve_path}")
    dets, _ = three_phase_determinations(load_curve(curve_path), n=100, seed=3)
    write_determination_file(dets, data / "example_three_phase.csv")
    print(f"wrote {data / 'example_three_phase.csv'} ({len(dets)} determinations)")


if __name__ == "__main__":
    generate(Path(__file__).resolve().parent.parent / "data")
