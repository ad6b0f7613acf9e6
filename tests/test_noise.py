"""Tests for noise families, validators, limit coefficients and sampling."""

import numpy as np
import pytest
from numpy.random import SFC64, Generator, SeedSequence
from numpy.testing import assert_allclose
from scipy.special import iv

from multiscale_spde.errors import MeanNotZero, NegativeRadicand, TruncationTooSmall
from multiscale_spde.fourier import (
    SpectralField,
    conjugation_defect,
    inner_product,
    l2_norm,
)
from multiscale_spde.limit import (
    averaged_coefficient,
    enhanced_coefficient,
    fluctuation_coefficient,
    smoothed_coefficient,
)
from multiscale_spde.noise import (
    NoiseSpec,
    bump_mollifier,
    check_decay,
    check_tail_convergence,
    check_tail_summability,
    coupling_series,
    tent_mollifier,
    wiener_streams,
)
from multiscale_spde.solver import SolverConfig, build_blocks, suggest_modes

I0_2 = iv(0, 2.0)
I0_4 = iv(0, 4.0)
I1_2 = iv(1, 2.0)

ONE_PLUS_COS = SpectralField.from_modes({0: 1.0, 1: 0.5, -1: 0.5})


class TestFamilies:
    def test_unknown_family_is_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown noise family 'pink'$"):
            NoiseSpec("pink", 4)

    def test_profiles_are_symmetric_and_real(self):
        spec = NoiseSpec.power_decay(0.6, 32, profile=ONE_PLUS_COS)
        for k in (0, 1, 5, 17):
            assert l2_norm(spec.profile(k) - spec.profile(-k)) == 0.0
            assert conjugation_defect(spec.profile(k)) < 1e-14

    @pytest.mark.parametrize("keys", [(1, -1), (-1, 1)])
    def test_custom_table_must_give_k_and_minus_k_one_profile(self, keys):
        """Keyed by |k|, a contradictory table would keep whichever key came last."""
        first, second = keys
        with pytest.raises(ValueError, match=rf"noise table gives q_{first} and q_{second} "
                                             r"different profiles; the profiles must obey"):
            NoiseSpec.custom({first: ONE_PLUS_COS, second: SpectralField.constant(1.0)}, 4)
        spec = NoiseSpec.custom({first: ONE_PLUS_COS, second: ONE_PLUS_COS.copy()}, 4)
        assert l2_norm(spec.profile(1) - ONE_PLUS_COS) == 0.0

    @pytest.mark.parametrize("build, message", [
        (lambda: NoiseSpec.white(0), r"cutoff must be at least 1$"),
        (lambda: NoiseSpec.power_decay(0.5, 8, profile=SpectralField.from_modes(
            {17: 0.5, -17: 0.5})), r"power profile exceeds 16 harmonics$"),
        (lambda: NoiseSpec.tail_convergent(SpectralField.from_modes({1: 1.0}), 1.0, cutoff=8),
         r"tail profile must be real-valued$"),
    ], ids=["cutoff", "harmonics", "not-real"])
    def test_bad_spec_is_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_power_profile_that_centres_to_zero_is_rejected(self, cosine_cell):
        """A constant profile minus its density mean <1, rho> = 1 leaves nothing to drive."""
        with pytest.raises(ValueError, match=r"^noise power\(alpha=0.5\)\+centred drives "
                                             r"nothing: every profile q_k with \|k\| <= 8 "
                                             r"vanishes$"):
            NoiseSpec.power_decay(0.5, 8).centered(cosine_cell.rho)

    @pytest.mark.parametrize("build, label", [
        (lambda rho: NoiseSpec.power_decay(0.5, 8, profile=SpectralField.from_modes({})),
         r"power\(alpha=0.5\)"),
        (lambda rho: NoiseSpec.power_decay(0.5, 8, profile=SpectralField.from_modes(
            {0: 0.0, 1: 0.0, -1: 0.0})), r"power\(alpha=0.5\)"),
        (lambda rho: NoiseSpec.tail_convergent(SpectralField.constant(1.0), 1.0, cutoff=8).centered(
            rho), r"tail\(rate=1\)\+centred"),
        (lambda rho: NoiseSpec.custom({2: SpectralField.zero(2),
                                       12: SpectralField.constant(1.0)}, 8), "custom"),
        (lambda rho: NoiseSpec.custom({}, 8), "custom"),
    ], ids=["empty-profile", "zero-profile", "centred-tail", "zero-within-cutoff", "empty-table"])
    def test_noise_that_drives_nothing_is_refused(self, cosine_cell, build, label):
        """Every q_k with |k| <= cutoff vanishes: whatever the family, nothing is driven.
        A custom table whose nonzero profile lies beyond the cutoff drives nothing too."""
        with pytest.raises(ValueError, match=rf"^noise {label} drives nothing: every profile "
                                             r"q_k with \|k\| <= 8 vanishes$"):
            build(cosine_cell.rho)

    def test_white_centering_is_rejected(self, cosine_cell):
        with pytest.raises(ValueError):
            NoiseSpec.white(8).centered(cosine_cell.rho)

    def test_centred_family(self, cosine_cell):
        spec = NoiseSpec.power_decay(0.5, 32, profile=ONE_PLUS_COS)
        centred = spec.centered(cosine_cell.rho)
        for k in (0, 1, 3, 9):
            assert abs(inner_product(centred.profile(k), cosine_cell.rho)) <= 1e-12
        # the common tail then also has vanishing density mean
        assert abs(inner_product(centred.tail, cosine_cell.rho)) <= 1e-8


def branch_profile(family, k, alpha=0.0, tail=None, tail_rate=1.0, ripple=None,
                   table=None):
    """q_k by the per-family branches that the one profile formula replaced."""
    k = abs(k)
    if family == "white":
        return SpectralField.constant(1.0)
    if family == "power":
        return max(1, k) ** (-alpha) * tail
    if family == "tail":
        return tail + max(1, k) ** (-tail_rate) * ripple
    return table[k] if k in table else SpectralField.zero(2)


class TestProfileFormula:
    COS = SpectralField.from_modes({1: 0.5, -1: 0.5})

    @pytest.mark.parametrize("centred", [False, True])
    def test_formula_is_bitwise_the_family_branches(self, cosine_cell, centred):
        rho = cosine_cell.rho

        def center(f):
            if not centred or f is None:
                return f
            return f - SpectralField.constant(inner_product(f, rho).real, 2)

        specs = [
            NoiseSpec.power_decay(0.6, 64, profile=ONE_PLUS_COS),
            NoiseSpec.tail_convergent(ONE_PLUS_COS, 0.75, cutoff=64, ripple=self.COS),
            NoiseSpec.custom({0: ONE_PLUS_COS, 5: self.COS, 17: ONE_PLUS_COS}, 64,
                             alpha=0.5, tail=ONE_PLUS_COS),
        ]
        if not centred:
            specs.append(NoiseSpec.white(64))
        for spec in specs:
            fields = {"family": spec.family, "alpha": spec.alpha, "tail": center(spec.tail),
                      "tail_rate": spec.tail_rate, "ripple": center(spec.ripple),
                      "table": spec.table and {k: center(f) for k, f in spec.table.items()}}
            got_spec = spec.centered(rho) if centred else spec
            for k in (0, 1, 5, 17, 64):
                want = branch_profile(k=k, **fields).coeffs.view(np.uint64)
                for signed_k in (k, -k):
                    got = got_spec.profile(signed_k).coeffs.view(np.uint64)
                    assert np.array_equal(got, want), (spec.label, centred, signed_k)


def passed(rows) -> bool:
    """A check's verdict: every one of its rows passed."""
    return all(row["passed"] for row in rows)


class TestValidators:
    def test_power_decay_passes(self):
        rows = check_decay(NoiseSpec.power_decay(0.75, 64))
        assert passed(rows)
        const = next(row["value"] for row in rows if "constant" in row["item"])
        assert_allclose(const, 1.0)

    def test_flat_profiles_with_declared_decay_fail(self):
        flat = {k: SpectralField.constant(1.0) for k in range(0, 65)}
        spec = NoiseSpec.custom(flat, 64, alpha=0.5, tail=SpectralField.constant(1.0))
        assert not passed(check_decay(spec))

    def test_half_decay_reports_h1_bound(self):
        rows = check_decay(NoiseSpec.power_decay(0.5, 64, profile=ONE_PLUS_COS))
        assert passed(rows)
        assert any("H1" in row["item"] for row in rows)

    def test_tail_convergence_cases(self):
        white = NoiseSpec.white(64)
        assert passed(check_tail_convergence(white))
        tail = NoiseSpec.tail_convergent(ONE_PLUS_COS, 1.0, cutoff=64,
                                         ripple=SpectralField.from_modes({1: 0.5, -1: 0.5}))
        rows = check_tail_convergence(tail)
        assert passed(rows)
        gaps = [row["value"] for row in rows if "final gap" in row["item"]]
        assert gaps[0] < 0.02  # ~ |ripple| / 64
        power = NoiseSpec.power_decay(0.4, 64, profile=ONE_PLUS_COS)
        assert passed(check_tail_convergence(power))

    def test_summability_cases(self):
        assert passed(check_tail_summability(NoiseSpec.white(256)))
        convergent = NoiseSpec.tail_convergent(ONE_PLUS_COS, 1.0, cutoff=256, eta=0.0)
        assert passed(check_tail_summability(convergent))
        divergent = NoiseSpec.tail_convergent(ONE_PLUS_COS, 0.25, cutoff=256, eta=0.0)
        assert not passed(check_tail_summability(divergent))


class TestLimitCoefficients:
    @pytest.mark.parametrize("use", [
        check_tail_convergence,
        check_tail_summability,
        lambda spec: fluctuation_coefficient(spec, SpectralField.constant(1.0)),
        lambda spec: enhanced_coefficient(spec, SpectralField.constant(1.0), 1),
    ], ids=["tail-convergence", "tail-summability", "fluctuation", "enhanced"])
    def test_a_spec_without_tail_is_refused(self, use):
        """A custom table declares no tail profile unless given one."""
        spec = NoiseSpec.custom({1: SpectralField.constant(1.0)}, cutoff=4)
        with pytest.raises(ValueError, match=r"^spec declares no tail profile$"):
            use(spec)

    def test_smoothed_needs_a_mollifier(self, cosine_cell):
        with pytest.raises(ValueError, match=r"^spec declares no mollifier symbol$"):
            smoothed_coefficient(NoiseSpec.white(8), cosine_cell.rho, 1)

    def test_negative_radicand_is_refused(self):
        """|<q_1, 1>|^2 - |<tail, 1>|^2 = 0.01 - 1 with the tail energy filtered out."""
        spec = NoiseSpec.custom({1: SpectralField.constant(0.1)}, cutoff=4,
                                tail=SpectralField.constant(1.0), mollifier=lambda xi: 0.0)
        with pytest.raises(NegativeRadicand, match=r"^coefficient radicand -9\.900e-01 < 0$"):
            smoothed_coefficient(spec, SpectralField.constant(1.0), 1)

    def test_averaged_white_is_one(self, cosine_cell):
        assert_allclose(averaged_coefficient(NoiseSpec.white(8), cosine_cell.rho, 3), 1.0)

    def test_averaged_mean_zero_profile(self):
        spec = NoiseSpec.power_decay(0.5, 8, profile=SpectralField.from_modes(
            {1: 0.5, -1: 0.5}))
        flat = SpectralField.constant(1.0)
        assert abs(averaged_coefficient(spec, flat, 1)) <= 1e-14

    def test_averaged_bessel_oracle(self, cosine_cell, gibbs_grid):
        spec = NoiseSpec.power_decay(0.75, 8, profile=ONE_PLUS_COS)
        got = averaged_coefficient(spec, cosine_cell.rho, 0)
        oracle = float(np.mean((1.0 + np.cos(
            2.0 * np.pi * np.arange(2048) / 2048)) * gibbs_grid(1.0)))
        assert_allclose(got.real, oracle, rtol=1e-12)
        assert_allclose(got.real, 1.0 - I1_2 / I0_2, rtol=1e-12)
        assert_allclose(got.real, 0.30223, atol=5e-6)

    def test_fluctuation_requires_mean_zero(self, cosine_cell):
        spec = NoiseSpec.power_decay(0.5, 8, profile=ONE_PLUS_COS)
        with pytest.raises(MeanNotZero):
            fluctuation_coefficient(spec, cosine_cell.rho)

    def test_fluctuation_flat_density(self):
        spec = NoiseSpec.power_decay(0.5, 8, profile=SpectralField.from_modes(
            {1: -0.5j, -1: 0.5j}))
        flat = SpectralField.constant(1.0)
        # |sin|_{-1/2} = sqrt(2 * (1/2)^2) = 1/sqrt(2)
        assert_allclose(fluctuation_coefficient(spec, flat), np.sqrt(0.5), rtol=1e-12)

    def test_fluctuation_unit_amplitude_pair(self):
        """tail * rho = e_1 + e_-1 at alpha = 1/2 gives sqrt(1 + 1) = sqrt(2)."""
        spec = NoiseSpec.power_decay(0.5, 8, profile=SpectralField.from_modes(
            {1: 1.0, -1: 1.0}))
        flat = SpectralField.constant(1.0)
        assert_allclose(fluctuation_coefficient(spec, flat), np.sqrt(2.0), rtol=1e-12)

    def test_fluctuation_against_direct_series(self, cosine_cell, gibbs_grid):
        spec = NoiseSpec.power_decay(0.5, 64, profile=ONE_PLUS_COS).centered(
            cosine_cell.rho)
        got = fluctuation_coefficient(spec, cosine_cell.rho)
        n = 4096
        x = 2.0 * np.pi * np.arange(n) / n
        qbar = np.cos(x) + I1_2 / I0_2
        coeffs = np.fft.fft(qbar * gibbs_grid(1.0, n)) / n
        oracle = np.sqrt(sum(
            (abs(coeffs[k]) ** 2 + abs(coeffs[-k]) ** 2) / abs(k) for k in range(1, 65)))
        assert_allclose(got, oracle, rtol=1e-10)

    def test_enhanced_identity(self, cosine_cell):
        got = enhanced_coefficient(NoiseSpec.white(8), cosine_cell.rho, 1)
        assert_allclose(got, l2_norm(cosine_cell.rho), rtol=1e-14)
        assert_allclose(got, np.sqrt(I0_4) / I0_2, rtol=1e-12)
        assert_allclose(got, 1.47476, atol=5e-6)

    def test_enhanced_flat_density_recovers_classical(self):
        assert_allclose(enhanced_coefficient(NoiseSpec.white(8),
                                             SpectralField.constant(1.0), 2), 1.0)

    def test_smoothed_limits(self, cosine_cell):
        flat = NoiseSpec.white(8, mollifier=lambda xi: 1.0)  # phi = 1 on the band
        assert_allclose(smoothed_coefficient(flat, cosine_cell.rho, 1),
                        enhanced_coefficient(flat, cosine_cell.rho, 1), rtol=1e-12)
        narrow = NoiseSpec.white(8, mollifier=tent_mollifier(1.0))  # phi(l) = 0, l != 0
        assert_allclose(smoothed_coefficient(narrow, cosine_cell.rho, 1),
                        abs(averaged_coefficient(narrow, cosine_cell.rho, 1)), rtol=1e-12)

    def test_smoothed_tent_radicand(self):
        """tail * rho = 1 + e_1 + e_-1; tent phi(+-1) = 1/2 quarters the band term."""
        tail = SpectralField.from_modes({0: 1.0, 1: 1.0, -1: 1.0})
        flat = SpectralField.constant(1.0)
        spec = NoiseSpec.custom({0: tail}, 4, tail=tail, mollifier=tent_mollifier(2.0))
        got = smoothed_coefficient(spec, flat, 0)
        # radicand: |<q_0, 1>|^2 - |<tail, 1>|^2 + (1 + 2 * (1/2)^2 * 1)
        assert_allclose(got**2, 1.0 - 1.0 + 1.5, rtol=1e-12)
        enh = enhanced_coefficient(spec, flat, 0)
        assert_allclose(enh**2, 1.0 - 1.0 + 3.0, rtol=1e-12)

    def test_bump_mollifier_shape(self):
        phi = bump_mollifier(2.0)
        assert phi(0.0) == 1.0
        assert phi(2.1) == 0.0
        assert 0.0 < phi(1.0) < 1.0


class TestCouplingSeries:
    def test_flat_case_single_offset(self):
        flat = SpectralField.constant(1.0)
        for eps in (0.25, 0.125):
            series = coupling_series(NoiseSpec.white(32), flat, eps, 1)
            assert_allclose(series.total, 1.0, rtol=1e-14)
            nonzero = {l for l, v in series.lambdas.items() if abs(v) > 1e-14}
            assert nonzero == {0}

    def test_definition_total_is_root_sum_of_squares(self, cosine_cell):
        series = coupling_series(NoiseSpec.white(64), cosine_cell.rho, 0.125, 1)
        assert_allclose(series.total,
                        np.sqrt(sum(abs(v) ** 2 for v in series.lambdas.values())),
                        rtol=1e-14)

    def test_white_series_approaches_enhanced_coefficient(self, cosine_cell):
        target = enhanced_coefficient(NoiseSpec.white(8), cosine_cell.rho, 1)
        gaps = []
        for eps_inv, max_l in ((4, 4), (8, 8)):
            spec = NoiseSpec.white(max_l * eps_inv)
            series = coupling_series(spec, cosine_cell.rho, 1.0 / eps_inv, 1,
                                     max_offset=max_l)
            assert series.tail_estimate <= 0.01 * series.total
            gaps.append(abs(series.total - target))
        assert gaps[1] < gaps[0] / 1.5

    def test_rescaled_series_approaches_fluctuation_coefficient(self, cosine_cell):
        spec = NoiseSpec.power_decay(0.5, 512, profile=ONE_PLUS_COS).centered(
            cosine_cell.rho)
        target = fluctuation_coefficient(spec, cosine_cell.rho)
        gaps = []
        for eps_inv in (8, 16, 32):
            series = coupling_series(spec, cosine_cell.rho, 1.0 / eps_inv, 1,
                                     rescaled=True, max_offset=8)
            gaps.append(abs(series.total - target))
        assert gaps[2] < gaps[1] < gaps[0]

    @pytest.mark.parametrize("eps, m, cutoff", [(0.125, 1, 64), (0.125, -3, 64), (0.25, 0, 30),
                                                (0.25, 1, 9), (0.0625, 7, 40)])
    def test_offsets_are_the_driven_wavenumbers_of_the_class(self, cosine, eps, m, cutoff):
        """With no max_offset, m + l / eps runs over exactly what build_blocks drives.

        (0.125, 1, 64) is the case the floor bound got wrong: it added l = -9, k = -71.
        """
        flat = SpectralField.constant(1.0)
        series = coupling_series(NoiseSpec.white(cutoff), flat, eps, m)
        r = int(round(1.0 / eps))
        cfg = SolverConfig(eps=eps, n_modes=suggest_modes(cosine, eps, cutoff), dt=1e-3,
                           t_final=1.0, watch=(1,), seed=0)
        driven = build_blocks(cosine, NoiseSpec.white(cutoff), cfg).blocks[m % r].driven
        assert sorted(m + l * r for l in series.lambdas) == driven.tolist()

    def test_truncation_guard(self, cosine_cell):
        with pytest.raises(TruncationTooSmall):
            coupling_series(NoiseSpec.white(8), cosine_cell.rho, 0.25, 1, max_offset=2)

    def test_mode_zero_is_accepted_and_unresolved_modes_are_not(self, cosine_cell):
        """Mode 0 has couplings like any resolved mode; eps |m| >= 1/2 is a ValueError
        naming m and eps, the shared check of the decay oracle."""
        series = coupling_series(NoiseSpec.white(32), cosine_cell.rho, 0.125, 0)
        assert_allclose(series.lambdas[0], 1.0, rtol=1e-14)  # <1, rho> = 1
        for eps, m in ((0.25, 2), (0.125, -4), (1.0, 1)):
            with pytest.raises(ValueError, match=rf"mode m = {m} is not resolved at "
                                                 rf"eps = {eps:g}: need eps \* \|m\| < 1/2"):
                coupling_series(NoiseSpec.white(32), cosine_cell.rho, eps, m)


def key_stream(seed, path=0, residue=0):
    """The stream of the one key (seed, path, residue): wiener_streams(seed, [path], [residue])."""
    [[stream]] = wiener_streams(seed, [path], [residue])
    return stream


def drawn(stream, n_steps, width):
    """The stream's next n_steps * width normals, shape (n_steps, width), filled in place."""
    out = np.empty((n_steps, width))
    stream.standard_normal(out=out)
    return out


class TestWienerSampling:
    def test_normals_are_the_spawned_sfc64_stream_in_draw_order(self):
        """Stream (seed, path, residue) is SFC64 on child (path, residue) of the seed's tree."""
        stream = key_stream(5, 3, 2)
        oracle = Generator(SFC64(SeedSequence(5).spawn(4)[3].spawn(3)[2]))
        for _ in range(2):  # the second call checks the stream position too
            assert np.array_equal(drawn(stream, 64, 7), oracle.standard_normal((64, 7)))

    def test_streams_are_numpys_seedsequence_children(self):
        """Every key of a grid, seeded in one vectorised pass, draws what SFC64 on
        SeedSequence(seed mod 2^64, spawn_key=(p, r)) draws, in a first chunk and a
        continued one; so does each key seeded alone.  The seeds cover one and
        two 32-bit words, a negative seed and one of 2^64 or more."""
        seeds = (0, 1, 2**32 - 1, 2**32, 2**63 + 5, -1, 2**64 + 3)
        paths, residues = (0, 15, 16, 2**32 - 1), (0, 1, 8, 31)
        for seed in seeds:
            for r, row in zip(residues, wiener_streams(seed, paths, residues)):
                for p, gen in zip(paths, row):
                    key = SeedSequence(seed & (2**64 - 1), spawn_key=(p, r))
                    oracle, stream = Generator(SFC64(key)), key_stream(seed, p, r)
                    for n in (37, 200):
                        want, got = oracle.standard_normal(n), np.empty(n)
                        gen.standard_normal(out=got)
                        assert np.array_equal(got, want), (seed, p, r, n)
                        assert np.array_equal(drawn(stream, n, 1).ravel(), want), (seed, p, r)

    @pytest.mark.parametrize("path, residue", [(2**32, 0), (2**64 + 1, 0), (0, 2**32),
                                               (-1, 0), (3, -2)])
    def test_a_key_beyond_one_32_bit_word_is_refused(self, path, residue):
        """SeedSequence would spread such a key over two words (or refuse a negative one)."""
        name, bad = ("residue", residue) if 0 <= path < 2**32 else ("path index", path)
        message = rf"stream {name} {bad} must lie in \[0, 2\^32\): each key of a Wiener " \
                  rf"stream is one 32-bit word"
        with pytest.raises(ValueError, match=message):
            key_stream(7, path, residue)
        with pytest.raises(ValueError, match=message):
            next(wiener_streams(7, [0, path], [1, residue]))

    def test_in_place_fill_continues_the_stream(self):
        """An in-place draw into a row slice continues the stream, as into a whole array."""
        whole = drawn(key_stream(3, 7, 1), 3, 40).ravel()
        stream = key_stream(3, 7, 1)
        buf = np.zeros((2, 90))
        stream.standard_normal(out=buf[1, 5:45])
        stream.standard_normal(out=buf[0, 10:90])
        assert np.array_equal(buf[1, 5:45], whole[:40])
        assert np.array_equal(buf[0, 10:90], whole[40:])
        assert not buf[1, :5].any() and not buf[1, 45:].any() and not buf[0, :10].any()

    def test_chunked_draws_agree_with_one_draw(self):
        whole = drawn(key_stream(3, 7), 64, 5)
        stream = key_stream(3, 7)
        chunks = np.vstack([drawn(stream, n, 5) for n in (1, 15, 32, 16)])
        assert np.array_equal(whole, chunks)

    def test_paths_and_seeds_own_their_streams(self):
        """So do the residues of one path: no two streams share any of their first 1,000 normals.

        The last two keys would share one stream if (seed, path, residue)
        were concatenated into one entropy list, where the seed's two
        32-bit words can pass for a seed and a path.
        """
        keys = ((1, 0, 0), (1, 1, 0), (2, 0, 0), (1, 0, 1), (1 + 3 * 2**32, 7, 0), (1, 3, 7))
        draws = [drawn(key_stream(*key), 250, 4) for key in keys]
        for a in range(len(keys)):
            for b in range(a + 1, len(keys)):
                assert np.intersect1d(draws[a], draws[b]).size == 0, (keys[a], keys[b])

    def test_moments(self):
        z = drawn(key_stream(123, 0), 50_000, 4).ravel()
        se = 1.0 / np.sqrt(z.size)
        assert abs(z.mean()) <= 4.0 * se
        assert abs((z**2).mean() - 1.0) <= 4.0 * np.sqrt(2.0) * se
