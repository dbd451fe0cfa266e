"""Tests of the benchmark's own input generation and output checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import hashlib
import shutil
import tempfile
import unittest
from pathlib import Path

import run


def flip_one_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


class Inputs(unittest.TestCase):
    def test_same_seed_same_commands(self):
        out = Path("out")
        self.assertEqual(run.repro_commands("repro", 7, out), run.repro_commands("repro", 7, out))

    def test_other_seed_other_commands(self):
        out = Path("out")
        self.assertNotEqual(run.repro_commands("repro", 7, out),
                            run.repro_commands("repro", 8, out))


class CsvChecker(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=run.OUT))
        self.pins = run.load_pins()["repro_bench"]

    def tearDown(self):
        shutil.rmtree(self.dir)

    def failures(self, name, seed, pins=None):
        checks = run.Checks()
        run.check_csv(checks, name, self.dir / name, seed, pins or self.pins)
        return checks.failures

    def test_golden_csv_rejects_one_byte_change(self):
        name = "campaign-timeseries.csv"
        shutil.copy(run.GOLDEN_DIR / name, self.dir / name)
        self.assertEqual(self.failures(name, run.GOLDEN_SEED), [])
        flip_one_byte(self.dir / name)
        self.assertEqual(len(self.failures(name, run.GOLDEN_SEED)), 1)

    def test_pinned_digest_rejects_one_byte_change(self):
        name = "fig2-figure0.csv"
        path = self.dir / name
        path.write_text("series,time_min\nk=10,20.0\n")
        pins = {**self.pins, "sha256": {name: hashlib.sha256(path.read_bytes()).hexdigest()}}
        self.assertEqual(self.failures(name, run.GOLDEN_SEED, pins), [])
        flip_one_byte(path)
        self.assertEqual(len(self.failures(name, run.GOLDEN_SEED, pins)), 1)

    def test_other_seed_checks_schema_and_rows(self):
        name = "campaign-timeseries.csv"
        shutil.copy(run.GOLDEN_DIR / name, self.dir / name)
        self.assertEqual(self.failures(name, 2), [])
        lines = (self.dir / name).read_text().splitlines()
        (self.dir / name).write_text("\n".join(lines[:-1]) + "\n")
        self.assertEqual(len(self.failures(name, 2)), 1)

    def test_missing_csv_fails(self):
        self.assertEqual(len(self.failures("load-summary.csv", 2)), 1)


if __name__ == "__main__":
    unittest.main()
