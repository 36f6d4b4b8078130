import pytest

from ranburst import guard_band_khz, lookup_numerology, usable_capacity


@pytest.mark.parametrize("beta", range(5))
def test_table_rows_follow_scaling_laws(beta):
    row = lookup_numerology(beta)
    assert row.scs_khz == 15 * 2**beta
    assert row.prb_khz == 12 * row.scs_khz == 180 * 2**beta
    assert row.slots_per_subframe == 2**beta


def test_lookup_examples():
    two = lookup_numerology(2)
    assert (two.scs_khz, two.prb_khz, two.slots_per_subframe) == (60, 720, 4)
    zero = lookup_numerology(0)
    assert (zero.scs_khz, zero.prb_khz, zero.slots_per_subframe) == (15, 180, 1)


@pytest.mark.parametrize("beta", [-1, 5, 12])
def test_lookup_rejects_out_of_range(beta):
    with pytest.raises(ValueError):
        lookup_numerology(beta)


def test_guard_band_examples():
    assert guard_band_khz(25000, 60, 31) == 1340
    assert guard_band_khz(25000, 60, 0) == 12500
    assert guard_band_khz(22320, 30, 62) == 0


def test_guard_band_infeasible():
    with pytest.raises(ValueError, match="infeasible"):
        guard_band_khz(25000, 60, 35)


def test_guard_band_monotone_in_prbs_and_scs():
    values = [guard_band_khz(25000, 60, n) for n in range(0, 35)]
    assert all(a > b for a, b in zip(values, values[1:]))
    by_scs = [guard_band_khz(25000, scs, 10) for scs in (15, 30, 60, 120)]
    assert all(a > b for a, b in zip(by_scs, by_scs[1:]))


@pytest.mark.parametrize("num_prbs", [0, 1, 7, 31])
def test_guard_bands_complement_usable_capacity(num_prbs):
    numerology = lookup_numerology(2)
    cfg = usable_capacity(25000, numerology, num_prbs, 360)
    guard = guard_band_khz(25000, numerology.scs_khz, num_prbs)
    assert cfg.usable_capacity_khz + 2 * guard == 25000


def test_usable_capacity_table2_values():
    cfg = usable_capacity(25000, lookup_numerology(2), 31, 360)
    assert cfg.usable_capacity_khz == 22320
    assert cfg.capacity_blocks == 62
    assert cfg.block_khz == 360


def test_usable_capacity_infeasible_and_block_mismatch():
    with pytest.raises(ValueError):
        usable_capacity(25000, lookup_numerology(2), 35, 360)
    with pytest.raises(ValueError, match="PRB count must be non-negative, got -5"):
        usable_capacity(25000, lookup_numerology(2), -5, 360)
    with pytest.raises(ValueError, match="multiple"):
        usable_capacity(25000, lookup_numerology(2), 31, 700)


def test_guard_overhead_reserves_blocks():
    cfg = usable_capacity(25000, lookup_numerology(2), 31, 360,
                          guard_overhead_khz=720)
    assert cfg.usable_capacity_khz == 22320 - 720
    assert cfg.capacity_blocks == 60
    with pytest.raises(ValueError, match="guard overhead must be non-negative, got -10 kHz"):
        usable_capacity(25000, lookup_numerology(2), 31, 360,
                        guard_overhead_khz=-10)
    with pytest.raises(ValueError, match="guard overhead 22680 kHz exceeds the allocation"):
        usable_capacity(25000, lookup_numerology(2), 31, 360,
                        guard_overhead_khz=22680)

