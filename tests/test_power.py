"""The power of the paper experiments: each plants one fault and names the runs that must see it.

Every row patches one component with ``monkeypatch`` and runs ``cli.main`` at
seed 1 and the default flags; each run it names must then exit 1, a FAIL
report, where the same run exits 0 on the unpatched code.  A row marked
``xfail`` is a known hole: a fault that none of its runs detects.
"""

import dataclasses

import pytest

import randmax.evd_core
import randmax.verify_harness
from randmax.cli import EXPERIMENTS, main
from randmax.evd_core import COMPLETE_DEPENDENCE, INDEPENDENCE
from randmax.extremal_proc import sample_levels
from randmax.lt_families import Degenerate, Geometric, LaplaceFamily, MittagLeffler

RANDOM_MAX = [["verify", "poincare"], ["verify", "thm24"], ["verify", "thm31"], ["verify", "thm34"]]
DEGENERATE = [argv + ["--family", "degenerate"] for argv in RANDOM_MAX]
THM32 = [["verify", "thm32", "--dependence", d] for d in ("none", "independence", "complete")]


def at_scaled_theta(owner, name, factor):
    """``owner.name`` evaluated at ``factor`` times its theta."""
    original = getattr(owner, name)
    return owner, name, lambda self, theta, x: original(self, factor * theta, x)


def scaled_mixer(factor):
    original = Geometric.sample_mixer
    return Geometric, "sample_mixer", lambda self, rng, size: factor * original(self, rng, size)


def scaled_limit_exponent(factor):
    original = MittagLeffler.limit_exponent
    return MittagLeffler, "limit_exponent", lambda self, v: factor * original(self, v)


def mapped_counts(func):
    original = Geometric.sample_count
    return Geometric, "sample_count", lambda self, theta, rng, size: func(
        original(self, theta, rng, size)
    )


def scaled_normed_survival(module, factor):
    """``module.normed_base`` with the survival S = 1 - G(a_n x + b_n) times ``factor``."""
    original = module.normed_base

    def normed_base(base, n):
        s, v = original(base, n)
        return factor * s, v

    return module, "normed_base", normed_base


def independent_levels():
    """Levels drawn one column per coordinate even under complete dependence."""

    def levels(law, t, rng, size):
        if law.dim >= 2 and law.dependence == COMPLETE_DEPENDENCE:
            law = dataclasses.replace(law, dependence=INDEPENDENCE)
        return sample_levels(law, t, rng, size)

    return randmax.verify_harness, "sample_levels", levels


def hole(reason):
    return pytest.mark.xfail(strict=True, reason=reason)


MUTATIONS = [
    pytest.param(
        at_scaled_theta(LaplaceFamily, "pgf_sf", 1.01), RANDOM_MAX, id="pgf_sf-theta*1.01"
    ),
    pytest.param(
        (LaplaceFamily, "index", lambda self, n: 2.0 / n),
        [["verify", "thm24"], ["verify", "thm34"]],
        id="index-2/n",
    ),
    # at n = 10^4, n times the random gap reads 2.25 under index 1.001/n and 12.2 under the
    # scaled exponent, against the first-order rate 0.64, though each gap is below 1.3e-3
    pytest.param(
        (LaplaceFamily, "index", lambda self, n: 1.001 / n), [["verify", "thm24"]], id="index-1.001/n"
    ),
    pytest.param(
        (LaplaceFamily, "index", lambda self, n: 1.001 / n),
        [["verify", "thm34"]],
        id="index-1.001/n-thm34",
    ),
    pytest.param(
        scaled_limit_exponent(1.01),
        [["verify", "thm34", "--family", "mittag-leffler", "--nu", "0.5"]],
        id="mittag-leffler-limit-exponent*1.01",
    ),
    pytest.param(scaled_mixer(1.03), THM32, id="mixer*1.03"),
    pytest.param(
        at_scaled_theta(Degenerate, "_pgf_sf", 1.01), DEGENERATE, id="degenerate-pgf_sf-theta*1.01"
    ),
    pytest.param(
        at_scaled_theta(Degenerate, "_pgf_sf_inv", 1.05),
        [["verify", "thm34", "--family", "degenerate"]],
        id="degenerate-pgf_sf_inv-theta*1.05",
    ),
    pytest.param(
        mapped_counts(lambda counts: (1.03 * counts).astype(counts.dtype)),
        [["verify", "lemma12"]],
        id="geometric-counts*1.03",
    ),
    pytest.param(
        scaled_normed_survival(randmax.verify_harness, 1.01),
        [["verify", "definetti"], ["verify", "thm24"], ["verify", "thm34"]],
        id="normed-survival*1.01",
    ),
    pytest.param(
        scaled_normed_survival(randmax.evd_core, 1.01), [["table", "doa"]], id="doa-survival*1.01"
    ),
    pytest.param(
        mapped_counts(lambda counts: counts + 1),
        [["verify", "lemma12"]],
        id="geometric-counts+1",
        marks=hole("theta (N + 1) moves theta N by 0.001: KS 0.0024 against the threshold 0.01"),
    ),
    pytest.param(
        independent_levels(),
        [["verify", "thm32", "--dependence", "complete"]],
        id="complete-dependence-levels-independent",
        marks=hole("thm32 checks each coordinate's levels, never their joint law"),
    ),
    pytest.param(
        at_scaled_theta(Geometric, "_pgf_sf_inv", 1.05),
        [["verify", "thm34"]],
        id="geometric-pgf_sf_inv-theta*1.05",
        marks=hole("KS 0.0185 lies inside 0.0115 plus the allowance 0.01; theta*1.2 gives 0.0503"),
    ),
]


def run(argv, tmp_path):
    return main([*argv, "--seed", "1", "--out", str(tmp_path)])


@pytest.mark.parametrize(
    "argv", sorted({tuple(argv) for row in MUTATIONS for argv in row.values[1]}), ids=" ".join
)
def test_baseline_run_passes(argv, tmp_path):
    assert run(argv, tmp_path) == 0


def test_every_checking_experiment_has_a_row_that_catches_a_fault():
    caught = {tuple(argv[:2]) for row in MUTATIONS if not row.marks for argv in row.values[1]}
    assert caught == {key for key in EXPERIMENTS if key[0] in ("verify", "table")}


@pytest.mark.parametrize("patch, argvs", MUTATIONS)
def test_planted_fault_fails_every_run_named(patch, argvs, monkeypatch, tmp_path):
    monkeypatch.setattr(*patch)
    assert [run(argv, tmp_path) for argv in argvs] == [1] * len(argvs)
