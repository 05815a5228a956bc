import os

# One BLAS thread for the whole run: the model's matrices are small, and extra
# threads roughly double the suite's CPU time without shortening its wall time.
# Set before the first NumPy import; an explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from auscult.data import synthetic_tone_noise_dataset

# verdict lines collected by the acceptance gate; printed after the run so
# they survive pytest's fd-level capture
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def make_tone_noise_dataset(n_clips=60, duration_s=2.0, seed=0):
    return synthetic_tone_noise_dataset(
        n_clips=n_clips, duration_s=duration_s, seed=seed
    )


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """One directory per test module for the files a fuzz test rewrites."""
    return tmp_path_factory.mktemp("fuzz")
