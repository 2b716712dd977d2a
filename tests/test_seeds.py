"""kgconformal.seeds draws numpy's seeded streams bit for bit, and the
suites that draw test fields never import numpy.random."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kgconformal.seeds import standard_doubles

#: word boundaries of SeedSequence's 32-bit split, and a seed of 7 words
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**200 + 7)


def _numpy_draws(seeds, k):
    return np.array([np.random.default_rng(seed).random(k) for seed in seeds]).reshape(len(seeds), k)


@pytest.mark.parametrize("k", [1, 11, 12])
def test_edge_seeds_draw_numpys_doubles(k):
    assert np.array_equal(standard_doubles(EDGE_SEEDS, k), _numpy_draws(EDGE_SEEDS, k))


@pytest.mark.parametrize("k", [1, 11, 12])
def test_one_batch_of_mixed_word_counts_draws_numpys_doubles(k):
    """Seeds of 1, 2, 5 and 7 words in one batch: the words past the fourth
    mix into the pool only for the seeds that have them."""
    seeds = [3, 2**40 + 5, 2**150 + 11, 17, 2**220 - 1, 2**33, 2**130, 2**200 + 2**190 + 9]
    assert {(s.bit_length() + 31) // 32 for s in seeds} == {1, 2, 5, 7}
    assert np.array_equal(standard_doubles(seeds, k), _numpy_draws(seeds, k))


@pytest.mark.parametrize("k", [1, 11, 12])
def test_empty_batch(k):
    assert standard_doubles([], k).shape == (0, k)


def test_negative_seed_raises():
    with pytest.raises(ValueError, match="non-negative"):
        standard_doubles([5, -1], 3)


#: the seeds at the 32- and 64-bit edges that an integer array can hold
ARRAY_SEEDS = {np.int64: (0, 2**32 - 1, 2**32, 2**63 - 1), np.uint64: (0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1)}


@pytest.mark.parametrize("k", [1, 12])
@pytest.mark.parametrize("dtype", sorted(ARRAY_SEEDS, key=str))
def test_integer_arrays_draw_what_numpy_and_the_list_path_draw(dtype, k):
    seeds = ARRAY_SEEDS[dtype]
    got = standard_doubles(np.array(seeds, dtype=dtype), k)
    assert np.array_equal(got, _numpy_draws(seeds, k))
    assert np.array_equal(got, standard_doubles(list(seeds), k))


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_empty_integer_array(dtype):
    assert standard_doubles(np.array([], dtype=dtype), 3).shape == (0, 3)


def test_negative_int64_seed_raises():
    with pytest.raises(ValueError, match="non-negative"):
        standard_doubles(np.array([5, -1], dtype=np.int64), 3)


def test_test_field_suites_do_not_import_numpy_random():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = (
        "import sys\n"
        "from kgconformal.harness import run_suite\n"
        "run_suite('operator-identities', {'n_fields': 3})\n"
        "run_suite('coulomb-z', {})\n"
        "print('numpy.random' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
