import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sboxkit import generator, metrics
from sboxkit import (
    NLMode,
    NonBijectiveWarning,
    NotBijective,
    ParamOutOfRange,
    as_sbox,
    bic_nl,
    component_bits,
    difference_distribution,
    differential_uniformity,
    fixed_points,
    format_grid,
    full_report,
    get_entry,
    is_bijective,
    linear_probability,
    nonlinearity,
    sac_matrix,
    save_sbox,
    sbox_nonlinearity,
    walsh_spectrum,
)
from sboxkit.reporting import report_to_dict

AES = get_entry("aes").table
IDENTITY = np.arange(256)
COMPLEMENT = IDENTITY ^ 0xFF

# pinned from the affine-distance oracle: AES is flat 112 across all masks
AES_BIC_NL = 112 * (np.ones((8, 8), dtype=np.int64) - np.eye(8, dtype=np.int64))


def random_bijections(count, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.permutation(256).astype(np.uint8) for _ in range(count)]


# ---------------------------------------------------------------------------
# Walsh spectrum and nonlinearity

def test_walsh_constant_function():
    w = walsh_spectrum(np.zeros(256, dtype=np.uint8))
    assert w[0] == 256
    assert np.all(w[1:] == 0)


def test_walsh_pure_linear_function():
    # f(x) = parity(a0 & x) concentrates at W(a0) = +256 under the
    # (-1)^(f XOR a.x) sign convention
    a0 = 0x2D
    f = oracles.PARITY[np.arange(256) & a0]
    w = walsh_spectrum(f)
    assert w[a0] == 256
    assert np.count_nonzero(w) == 1


def test_walsh_matches_direct_sum():
    rng = np.random.default_rng(42)
    for _ in range(10):
        f = rng.integers(0, 2, 256).astype(np.uint8)
        assert np.array_equal(walsh_spectrum(f), oracles.walsh_direct(f))


def test_walsh_parseval_and_parity():
    rng = np.random.default_rng(3)
    for _ in range(25):
        f = rng.integers(0, 2, 256).astype(np.uint8)
        w = walsh_spectrum(f).astype(np.int64)
        assert (w * w).sum() == 65536
        assert np.all(w % 2 == 0)
        assert np.abs(w).max() <= 256


def test_nonlinearity_trivial_cases():
    assert nonlinearity(np.zeros(256, dtype=np.uint8)) == 0
    assert nonlinearity(np.ones(256, dtype=np.uint8)) == 0
    affine = oracles.PARITY[np.arange(256) & 0x5B] ^ 1
    assert nonlinearity(affine) == 0


def test_nonlinearity_matches_affine_distance_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = rng.integers(0, 2, 256).astype(np.uint8)
        assert nonlinearity(f) == oracles.nonlinearity_affine(f)


def test_nonlinearity_affine_invariance():
    # NL(f XOR affine) = NL(f), 100 random pairs
    rng = np.random.default_rng(9)
    x = np.arange(256)
    for _ in range(100):
        f = rng.integers(0, 2, 256).astype(np.uint8)
        a = int(rng.integers(0, 256))
        c = int(rng.integers(0, 2))
        ell = oracles.PARITY[x & a] ^ c
        assert nonlinearity(f) == nonlinearity(f ^ ell)


# The truth-table contract: exactly 256 bits, integers or bools, nothing coerced.
BAD_TRUTH_TABLES = {
    "holds-2": np.full(256, 2),
    "float": np.full(256, 0.7),
    "holds-minus-1": np.concatenate([np.zeros(255, dtype=int), [-1]]),
    "255-entries": np.zeros(255, dtype=np.uint8),
}


@pytest.mark.parametrize("func", [walsh_spectrum, nonlinearity])
@pytest.mark.parametrize("f", BAD_TRUTH_TABLES.values(), ids=BAD_TRUTH_TABLES)
def test_truth_table_functions_reject_anything_but_256_bits(func, f):
    with pytest.raises(ValueError):
        func(f)


def test_truth_table_accepts_bools():
    f = oracles.PARITY[np.arange(256) & 0x5B]
    assert np.array_equal(walsh_spectrum(f.astype(bool)), walsh_spectrum(f))


def test_component_bits():
    bits = component_bits(AES, 1)
    assert np.array_equal(bits, AES & 1)
    bits = component_bits(AES, 0b101)
    assert np.array_equal(bits, (AES & 1) ^ ((AES >> 2) & 1))
    assert bits.dtype == np.uint8
    assert np.array_equal(component_bits(AES, np.uint8(0b101)), bits)
    # every mask against the oracles' own parity table, on a bijection and
    # on an arbitrary table
    arbitrary = np.random.default_rng(11).integers(0, 256, 256)
    for table in (AES, arbitrary):
        for mask in range(1, 256):
            assert np.array_equal(component_bits(table, mask), oracles.PARITY[table & mask])
    for mask in (0, 256, 3.5, True, np.bool_(True), "3", None):
        with pytest.raises(ValueError):
            component_bits(AES, mask)


# ---------------------------------------------------------------------------
# S-box level metrics

def test_sbox_nonlinearity_aes_both_modes():
    for mode in NLMode:
        nl = sbox_nonlinearity(AES, mode)
        assert (nl.minimum, nl.maximum) == (112, 112)
        assert nl.average == 112.0
    assert sbox_nonlinearity(AES).per_coordinate == tuple([112] * 8)


@pytest.mark.parametrize("func", [sbox_nonlinearity, full_report])
def test_nl_mode_must_be_an_nlmode(func):
    with pytest.raises(ParamOutOfRange):
        func(AES, "coord")


def test_sbox_nonlinearity_identity():
    nl = sbox_nonlinearity(IDENTITY)
    assert nl.per_coordinate == tuple([0] * 8)
    assert nl.minimum == nl.maximum == 0


def test_sbox_nonlinearity_full_spectrum_is_stricter():
    # the shipped published box: per-output-bit profile vs all 255 masks
    box = get_entry("paper-proposed").table
    coord = sbox_nonlinearity(box, NLMode.COORDINATE)
    full = sbox_nonlinearity(box, NLMode.FULL_SPECTRUM)
    assert coord.per_coordinate == (110, 110, 108, 110, 110, 110, 108, 110)
    assert (coord.minimum, coord.maximum, coord.average) == (108, 110, 109.5)
    assert full.minimum == 94  # combined-mask components dip well below
    assert full.maximum == 110
    assert full.minimum <= coord.minimum


def test_sac_identity_and_complement():
    for box in (IDENTITY, COMPLEMENT):
        sac = sac_matrix(box)
        assert np.array_equal(sac.matrix, np.eye(8))
    assert sac_matrix(IDENTITY).average == pytest.approx(1.0 / 8.0)


def test_sac_matches_direct_count():
    for box in random_bijections(5, seed=17):
        sac = sac_matrix(box)
        assert np.array_equal(sac.matrix, oracles.sac_direct(box))
        # every entry is a multiple of 1/256
        assert np.all(sac.matrix * 256 == np.round(sac.matrix * 256))


def test_bic_nl_symmetry_and_identity():
    box = random_bijections(1, seed=23)[0]
    bic = bic_nl(box)
    assert np.array_equal(bic.matrix, bic.matrix.T)
    assert np.all(np.diag(bic.matrix) == 0)
    assert np.all(bic_nl(IDENTITY).matrix == 0)


def test_bic_nl_aes_pinned_and_oracle():
    bic = bic_nl(AES)
    assert np.array_equal(bic.matrix, AES_BIC_NL)
    assert np.array_equal(bic.matrix, oracles.bic_nl_direct(AES))
    off = bic.matrix[~np.eye(8, dtype=bool)]
    assert np.all((off >= 96) & (off <= 112))
    assert bic.average == 112.0


def test_lp_identity_and_aes():
    assert linear_probability(IDENTITY) == 0.5
    assert linear_probability(AES) == 0.0625


def test_lp_matches_direct_count():
    for box in random_bijections(5, seed=29):
        lp = linear_probability(box)
        assert lp == oracles.lp_direct(box)
        assert 0.0 <= lp <= 0.5
        assert (lp * 256) == round(lp * 256)


def test_ddt_identity():
    ddt = difference_distribution(IDENTITY)
    for dc in range(1, 256):
        assert ddt[dc, dc] == 256
        assert ddt[dc].sum() == 256
    assert ddt[0, 0] == 256


def test_ddt_structure():
    for box in random_bijections(3, seed=31):
        ddt = difference_distribution(box)
        assert np.all(ddt.sum(axis=1) == 256)
        assert np.all(ddt % 2 == 0)
        assert ddt[0, 0] == 256
        assert np.all(ddt[0, 1:] == 0)


def test_du_aes_and_identity():
    du = differential_uniformity(AES)
    assert (du.du, du.dp) == (4, 0.015625)
    assert difference_distribution(AES)[1:].max() == 4
    du_id = differential_uniformity(IDENTITY)
    assert (du_id.du, du_id.dp) == (256, 1.0)


def test_du_matches_direct_count():
    for box in random_bijections(3, seed=37):
        du = differential_uniformity(box)
        assert du.du == oracles.du_direct(box)
        assert du.dp == du.du / 256


def test_du_grid_layout():
    du = differential_uniformity(AES)
    assert du.grid.shape == (16, 16)
    assert du.grid[15, 15] == 0  # structural zero for dc = 0 mod 256
    ddt = difference_distribution(AES)
    flat = du.grid.reshape(-1)
    for k in range(255):
        assert flat[k] == ddt[k + 1].max()
    assert du.du == du.grid.max()


def test_fixed_points():
    assert fixed_points(IDENTITY) == list(range(256))
    assert fixed_points(COMPLEMENT) == []
    assert fixed_points(AES) == []


def test_xor_conjugation_invariance():
    # relabeling inputs by XOR constant preserves NL, LP, DU
    rng = np.random.default_rng(41)
    for box in random_bijections(3, seed=43):
        c = int(rng.integers(1, 256))
        relabeled = box[np.arange(256) ^ c]
        assert sbox_nonlinearity(box) == sbox_nonlinearity(relabeled)
        assert linear_probability(box) == linear_probability(relabeled)
        assert differential_uniformity(box).du == differential_uniformity(relabeled).du


# ---------------------------------------------------------------------------
# full_report

def test_full_report_aes_bundle():
    r = full_report(AES)
    assert (r.nl_min, r.nl_max, r.nl_avg) == (112, 112, 112.0)
    assert (r.du, r.dp, r.lp) == (4, 0.015625, 0.0625)
    assert r.fixed_point_count == 0
    assert r.bijective
    assert r.sac_avg == 0.5048828125


def test_full_report_identity_bundle():
    r = full_report(IDENTITY)
    assert (r.nl_min, r.du, r.dp, r.lp) == (0, 256, 1.0, 0.5)
    assert r.fixed_point_count == 256
    assert np.array_equal(r.sac_matrix, np.eye(8))


def test_full_report_invariants():
    for box in random_bijections(3, seed=47):
        r = full_report(box)
        assert r.nl_min <= r.nl_avg <= r.nl_max
        assert r.dp == r.du / 256
        assert r.sac_offset == abs(r.sac_avg - 0.5)
        assert 0.0 <= r.lp <= 0.5


def test_full_report_pure():
    box = random_bijections(1, seed=53)[0]
    assert report_to_dict(full_report(box)) == report_to_dict(full_report(box))


def test_non_bijective_rejected_then_allowed():
    squashed = AES.copy()
    squashed[7] = squashed[8]
    with pytest.raises(NotBijective):
        full_report(squashed)
    with pytest.warns(NonBijectiveWarning):
        r = full_report(squashed, allow_non_bijective=True)
    assert not r.bijective
    assert r.du >= 4  # raw-count metrics still computed


# ---------------------------------------------------------------------------
# The table contract: exactly 256 integers in 0..255, nothing coerced.  The
# last two wrap to permutations if cast to uint8.

BAD_TABLES = {
    "255-entries": np.arange(255),
    "float": np.arange(256) * 1.0,
    "bool": np.arange(256) % 2 == 0,
    "holds-256": np.arange(1, 257),
    "holds-minus-1": np.arange(-1, 255),
}
TABLE_FUNCTIONS = {
    "as_sbox": as_sbox,
    "difference_distribution": difference_distribution,
    "fixed_points": fixed_points,
    "component_bits": lambda table: component_bits(table, 1),
    "format_grid": format_grid,
}


def test_is_bijective():
    assert is_bijective(AES)
    assert not is_bijective(np.zeros(256, dtype=int))
    assert not is_bijective(np.arange(255))
    for table in BAD_TABLES.values():
        assert not is_bijective(table)


@pytest.mark.parametrize("func", TABLE_FUNCTIONS.values(), ids=TABLE_FUNCTIONS)
@pytest.mark.parametrize("table", BAD_TABLES.values(), ids=BAD_TABLES)
def test_functions_taking_a_table_reject_anything_but_256_bytes(func, table):
    with pytest.raises(NotBijective):
        func(table)


@pytest.mark.parametrize("table", BAD_TABLES.values(), ids=BAD_TABLES)
def test_save_sbox_rejects_without_leaving_a_file(tmp_path, table):
    path = tmp_path / "box.sbox"
    with pytest.raises(NotBijective):
        save_sbox(path, table)
    assert not path.exists()


# ---------------------------------------------------------------------------
# Differential tests: every battery kernel against its oracle, on random
# bijections and arbitrary (non-bijective) tables

TABLES = st.one_of(
    st.permutations(range(256)),
    st.lists(st.integers(0, 255), min_size=256, max_size=256),
).map(lambda values: np.array(values, dtype=np.uint8))

SPECIAL_TABLES = (np.zeros(256, dtype=np.uint8),
                  np.full(256, 255, dtype=np.uint8),
                  IDENTITY.astype(np.uint8))


def battery_examples(test):
    for table in SPECIAL_TABLES:
        test = example(table=table)(test)
    return settings(max_examples=40, deadline=None)(given(table=TABLES)(test))


@battery_examples
@pytest.mark.filterwarnings("ignore::sboxkit.errors.NonBijectiveWarning")
def test_spectra_metrics_match_fwht_reference(table):
    ref = oracles.spectra_reference(table)
    spectra = metrics._all_mask_spectra(table)
    assert spectra.dtype == np.int32
    assert np.array_equal(spectra, ref)

    nls = (256 - np.abs(ref).max(axis=1)) // 2
    coord = [int(nls[m - 1]) for m in metrics.COORD_MASKS]
    full = sbox_nonlinearity(table, NLMode.FULL_SPECTRUM, allow_non_bijective=True)
    assert (full.minimum, full.maximum, full.average) == (nls.min(), nls.max(), nls.mean())
    assert full.per_coordinate == tuple(coord)
    per_bit = sbox_nonlinearity(table, allow_non_bijective=True)
    assert (per_bit.minimum, per_bit.maximum, per_bit.average) == \
        (min(coord), max(coord), sum(coord) / 8)

    lp = np.abs(ref).max() / 512
    assert linear_probability(table, allow_non_bijective=True) == lp
    assert full_report(table, allow_non_bijective=True).lp == lp


def test_half_pairs_cover_every_input_once():
    lo, hi = metrics._half_pairs()
    assert lo.shape == hi.shape == (255, 128)
    for dc in range(1, 256):
        row = lo[dc - 1]
        assert np.array_equal(hi[dc - 1], row ^ dc)
        assert np.array_equal(np.sort(np.concatenate((row, row ^ dc))), IDENTITY)


@example(table=AES)  # besides SPECIAL_TABLES' identity and constants
@battery_examples
@pytest.mark.filterwarnings("ignore::sboxkit.errors.NonBijectiveWarning")
def test_ddt_matches_direct_count(table):
    ref = oracles.ddt_direct(table)
    ddt = difference_distribution(table)
    assert ddt.dtype == np.int64
    assert np.array_equal(ddt, ref)
    row_max = ref[1:].max(axis=1)
    du = differential_uniformity(table, allow_non_bijective=True)
    report = full_report(table, allow_non_bijective=True)
    for got in (du, metrics.DuResult(report.du, report.dp, report.du_grid)):
        assert got.du == row_max.max()
        assert got.dp == row_max.max() / 256
        assert np.array_equal(got.grid.reshape(-1), np.append(row_max, 0))


@battery_examples
@pytest.mark.filterwarnings("ignore::sboxkit.errors.NonBijectiveWarning")
def test_sac_and_bic_match_direct_count(table):
    sac = sac_matrix(table, allow_non_bijective=True)
    assert np.array_equal(sac.matrix, oracles.sac_direct(table))
    bic = bic_nl(table, allow_non_bijective=True)
    assert np.array_equal(bic.matrix, oracles.bic_nl_direct(table))


def test_generator_and_metrics_share_one_hadamard():
    h = metrics._hadamard()
    assert generator._hadamard() is h
    assert not h.flags.writeable
    parity = oracles.PARITY[np.bitwise_and.outer(np.arange(256), np.arange(256))]
    signs = 1 - 2 * parity.astype(np.int32)
    assert np.array_equal(h, signs)


def test_hadamard_bytes_match_oracle_butterfly():
    h = metrics._hadamard()
    assert h.dtype == np.float32
    assert h.tobytes() == oracles.fwht(np.eye(256)).astype(np.float32).tobytes()

