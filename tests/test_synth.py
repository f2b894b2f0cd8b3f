"""Synthetic world generation and dataset serialization."""

import hashlib
import struct
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import synth_reference
from occfill import synth
from occfill.cli import DataConfig, RunConfig, synthesize
from occfill.errors import FormatError, PreconditionError, ShapeMismatchError
from occfill.ndnum import RekeyedGenerator, Rng

WORLD = synth.gen_world(synth.WorldConfig(), 0)
QUIET = synth.gen_world(synth.WorldConfig(sigma_id=0.0), 0)


def corr_map(a, b):
    """Per-cell channel-mean of the bounded product similarity."""
    per = (a * b) / (1.0 + np.abs(a - b))
    return per.mean(axis=0)


def archetype(world, scale):
    f = world.templates[world.part_grid]
    f = np.moveaxis(f, -1, 0).astype(np.float64)
    return (scale / synth.SCALE_NORM) * f


# ---------------------------------------------------------------------------
# world construction


def test_world_same_seed_identical():
    a = synth.gen_world(synth.WorldConfig(), 7)
    b = synth.gen_world(synth.WorldConfig(), 7)
    assert np.array_equal(a.templates, b.templates)
    assert np.array_equal(a.spare_templates, b.spare_templates)
    assert np.array_equal(a.part_grid, b.part_grid)


def test_world_seed_changes_templates():
    a = synth.gen_world(synth.WorldConfig(), 7)
    b = synth.gen_world(synth.WorldConfig(), 8)
    assert not np.array_equal(a.templates, b.templates)


def test_part_grid_covers_all_parts():
    grid = WORLD.part_grid
    assert grid.shape == (7, 7)
    assert set(np.unique(grid)) == set(range(len(synth.PART_NAMES)))
    # head occupies the full top row
    assert (grid[:, 0] == synth.PART_NAMES.index("head")).all()


def test_templates_are_orthogonal_sign_rows():
    t = np.vstack([WORLD.templates, WORLD.spare_templates])
    assert np.isin(t, (-1.0, 1.0)).all()
    gram = t @ t.T
    assert np.array_equal(gram, 16.0 * np.eye(t.shape[0]))


def assert_orthogonal_templates(world):
    """6 part rows and C - 6 spares, each of norm sqrt(C), pairwise orthogonal."""
    c = world.config.channels
    assert world.templates.shape == (len(synth.PART_NAMES), c)
    assert world.spare_templates.shape == (c - len(synth.PART_NAMES), c)
    t = np.vstack([world.templates, world.spare_templates])
    norms = np.linalg.norm(t, axis=1)
    assert np.allclose(norms, np.sqrt(c), rtol=1e-12, atol=0.0)
    cos = (t @ t.T) / np.outer(norms, norms)
    np.fill_diagonal(cos, 0.0)
    assert np.abs(cos).max() <= 1e-12


def test_non_power_of_two_channels_supported():
    assert_orthogonal_templates(synth.gen_world(synth.WorldConfig(channels=12), 3))


@pytest.mark.parametrize("channels", [c for c in range(7, 25) if c & (c - 1)])
def test_non_power_of_two_templates_are_orthogonal(channels):
    for seed in range(10):
        assert_orthogonal_templates(
            synth.gen_world(synth.WorldConfig(channels=channels), seed))


@pytest.mark.parametrize("channels,digest", [
    (8, "2456e710775298d65a0f04e2b85d1a118f098c2edcd2b670902528d7e77d6ebd"),
    (16, "430bcdd35589f9249b4656c0ee249864a68b99367a60d04245508c6a5b48dbdf"),
    (32, "f7ebcadbe6f9a85e15ff16f4b9798f4ea0206f82a51a9f7ea3ca031a2ed425cc"),
])
def test_power_of_two_templates_are_pinned(channels, digest):
    # the Hadamard templates of seeds 0-19 must not move with the other branch
    h = hashlib.sha256()
    for seed in range(20):
        w = synth.gen_world(synth.WorldConfig(channels=channels), seed)
        h.update(w.templates.tobytes())
        h.update(w.spare_templates.tobytes())
    assert h.hexdigest() == digest


def test_too_few_channels_rejected():
    with pytest.raises(PreconditionError):
        synth.WorldConfig(channels=4).validate()


def test_six_channels_rejected_up_front():
    # six part templates leave no orthogonal row for an occluder
    with pytest.raises(PreconditionError, match="at least 7 channels"):
        synth.gen_world(synth.WorldConfig(channels=6), 0)


def test_scale_rejection_loop_is_bounded(monkeypatch):
    # a mixture whose one component is never accepted
    monkeypatch.setattr(synth, "SCALE_MEANS", (4.0,))
    monkeypatch.setattr(synth, "SCALE_STDS", (0.0,))
    monkeypatch.setattr(synth, "SCALE_WEIGHTS", (1.0,))
    monkeypatch.setattr(synth, "MAX_SCALE_DRAWS", 50)
    with pytest.raises(PreconditionError, match="50 draws"):
        synth.sample_scale(Rng(0).gen)


def test_config_validation():
    with pytest.raises(PreconditionError):
        synth.WorldConfig(sigma_id=-0.1).validate()
    with pytest.raises(PreconditionError):
        synth.WorldConfig(grid_x=1).validate()


# ---------------------------------------------------------------------------
# pedestrians


def test_pedestrian_shape_and_flags():
    p = synth.gen_pedestrian(WORLD, 105.0, Rng(1).gen)
    assert p.features.shape == (16, 7, 7)
    assert p.visibility == 1.0
    assert p.true_mask is None
    assert 0.0 <= p.score <= 1.0
    assert not p.features.flags.writeable


def test_pedestrian_determinism():
    a = synth.gen_pedestrian(WORLD, 105.0, Rng(11).gen)
    b = synth.gen_pedestrian(WORLD, 105.0, Rng(11).gen)
    assert np.array_equal(a.features, b.features)
    assert a.score == b.score


def test_pedestrian_rejects_nonpositive_scale():
    with pytest.raises(PreconditionError):
        synth.gen_pedestrian(WORLD, 0.0, Rng(1).gen)


@pytest.mark.parametrize("scale", [np.nan, np.inf])
def test_pedestrian_rejects_non_finite_scale(scale):
    with pytest.raises(PreconditionError, match="positive and finite"):
        synth.gen_pedestrian(WORLD, scale, Rng(1).gen)


@pytest.mark.parametrize("scale", [np.nan, np.inf])
def test_proposal_rejects_non_finite_scale(scale):
    p = synth.gen_pedestrian(WORLD, 105.0, Rng(1).gen)
    with pytest.raises(PreconditionError, match="scale"):
        synth.Proposal(p.id, p.label, scale, p.features, p.score).validate()


def test_sample_scale_respects_floor():
    rng = Rng(5).gen
    draws = [synth.sample_scale(rng) for _ in range(500)]
    assert min(draws) >= synth.MIN_SCALE


def test_sample_scale_draws_land_in_component_bands():
    # Default mixture: each component's support is capped 1.5 stds above
    # its mean and floored just past the midpoint to the previous mean,
    # so the four crowds occupy disjoint height bands.
    bands = [(8.0, 78.16), (85.55, 134.0), (144.81, 235.93), (263.9, 537.0)]
    rng = Rng(6).gen
    draws = [synth.sample_scale(rng) for _ in range(2000)]
    hits = [0] * len(bands)
    for s in draws:
        inside = [lo <= s <= hi for lo, hi in bands]
        assert sum(inside) == 1, f"scale {s} outside every band"
        hits[inside.index(True)] += 1
    assert all(h > 0 for h in hits)
    assert hits[0] > hits[1] > hits[2] > hits[3]


def test_zero_noise_pedestrian_is_pure_template():
    p = synth.gen_pedestrian(QUIET, 181.0, Rng(2).gen)
    expect = archetype(QUIET, 181.0)
    assert np.array_equal(p.features, expect)


# ---------------------------------------------------------------------------
# masks


def test_left_half_mask_is_21_or_28_cells():
    rng = Rng(3).gen
    seen = set()
    for _ in range(50):
        m = synth.sample_mask(WORLD, "left-half", rng)
        cols = m.count // 7
        seen.add(m.count)
        assert m.count in (21, 28)
        expect = np.zeros((7, 7), dtype=bool)
        expect[:cols, :] = True
        assert np.array_equal(m.grid, expect)
    assert seen == {21, 28}


def test_right_half_mask_hugs_right_edge():
    m = synth.sample_mask(WORLD, "right-half", Rng(4).gen)
    assert m.count in (21, 28)
    assert m.grid[-1, :].all()
    assert not m.grid[0, :].any()


def test_mask_fractions_bounded():
    rng = Rng(6).gen
    for pattern in synth.MASK_PATTERNS:
        for _ in range(40):
            m = synth.sample_mask(WORLD, pattern, rng)
            assert 0.2 <= m.fraction() <= 0.8


def test_person_shape_mask_records_shift():
    rng = Rng(7).gen
    m = synth.sample_mask(WORLD, "person-shape", rng)
    assert m.shift is not None
    dx, dy = m.shift
    assert -3 <= dx <= 3 and -3 <= dy <= 3


def test_mask_pattern_validation():
    with pytest.raises(PreconditionError):
        synth.sample_mask(WORLD, "diagonal", Rng(1).gen)


# ---------------------------------------------------------------------------
# occlusion


def _mask_of(cells):
    grid = np.zeros(49, dtype=bool)
    grid[list(cells)] = True
    return synth.OcclusionMask(grid.reshape(7, 7))


def test_empty_mask_keeps_proposal_identical():
    base = synth.gen_pedestrian(WORLD, 105.0, Rng(8).gen)
    q = synth.gen_occluded(WORLD, base, _mask_of([]), "object", Rng(9).gen)
    assert np.array_equal(q.features, base.features)
    assert q.visibility == 1.0


def test_full_mask_zeroes_visibility():
    base = synth.gen_pedestrian(WORLD, 105.0, Rng(10).gen)
    q = synth.gen_occluded(WORLD, base, _mask_of(range(49)), "object", Rng(11).gen)
    assert q.visibility == 0.0


def test_ten_cell_mask_visibility():
    base = synth.gen_pedestrian(WORLD, 105.0, Rng(12).gen)
    q = synth.gen_occluded(WORLD, base, _mask_of(range(10)), "object", Rng(13).gen)
    assert abs(q.visibility - 39.0 / 49.0) < 1e-12


def test_object_occluder_stamps_one_template():
    base = synth.gen_pedestrian(QUIET, 105.0, Rng(14).gen)
    mask = synth.sample_mask(QUIET, "rect", Rng(15).gen)
    q = synth.gen_occluded(QUIET, base, mask, "object", Rng(16).gen)
    m = mask.grid
    assert np.array_equal(q.features[:, ~m], base.features[:, ~m])
    block = q.features[:, m]
    assert np.allclose(block, block[:, :1])
    col = block[:, 0] * synth.SCALE_NORM / 105.0
    assert np.isin(np.round(col), (-1.0, 1.0)).all()


def test_pedestrian_occluder_touches_only_masked_cells():
    base = synth.gen_pedestrian(WORLD, 105.0, Rng(17).gen)
    mask = synth.sample_mask(WORLD, "person-shape", Rng(18).gen)
    q = synth.gen_occluded(WORLD, base, mask, "pedestrian", Rng(19).gen)
    m = mask.grid
    assert np.array_equal(q.features[:, ~m], base.features[:, ~m])
    assert not np.array_equal(q.features[:, m], base.features[:, m])
    assert np.array_equal(q.true_mask.grid, m)


def test_occlusion_preconditions():
    base = synth.gen_pedestrian(WORLD, 105.0, Rng(20).gen)
    mask = _mask_of(range(12))
    with pytest.raises(PreconditionError):
        synth.gen_occluded(WORLD, base, mask, "fog", Rng(21).gen)
    bg = synth.gen_background(WORLD, Rng(22).gen)
    with pytest.raises(PreconditionError):
        synth.gen_occluded(WORLD, bg, mask, "object", Rng(23).gen)
    once = synth.gen_occluded(WORLD, base, mask, "object", Rng(24).gen)
    with pytest.raises(PreconditionError):
        synth.gen_occluded(WORLD, once, mask, "object", Rng(25).gen)
    small = synth.OcclusionMask(np.zeros((3, 3), dtype=bool))
    with pytest.raises(ShapeMismatchError):
        synth.gen_occluded(WORLD, base, small, "object", Rng(26).gen)


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=48)))
def test_visibility_complements_mask_fraction(cells):
    base = synth.gen_pedestrian(QUIET, 105.0, Rng(27).gen)
    mask = _mask_of(cells)
    q = synth.gen_occluded(QUIET, base, mask, "object", Rng(28).gen)
    assert abs(q.visibility - (1.0 - len(cells) / 49.0)) < 1e-12
    assert np.array_equal(q.features[:, ~mask.grid], base.features[:, ~mask.grid])


# ---------------------------------------------------------------------------
# backgrounds


def test_background_has_no_mask():
    b = synth.gen_background(WORLD, Rng(29).gen)
    assert b.label == synth.BACKGROUND
    assert b.true_mask is None
    assert b.visibility == 1.0
    assert 0.0 <= b.score <= 1.0


def test_background_cell_permutation_alignment_count():
    parts = WORLD.part_grid.reshape(-1)
    rng = Rng(30).gen
    for k in (3, 4):
        src = synth._bg_cell_permutation(WORLD, rng, k)
        assert sorted(src) == list(range(49))
        aligned = parts[src] == parts
        assert aligned.sum() == k


def test_every_accepted_small_grid_draws_backgrounds():
    # N x 2 grids and 2x3, 3x3 stall the swap search for some draws; the
    # permutation then redraws instead of failing
    for gx in range(2, 7):
        for gy in range(2, 7):
            config = synth.WorldConfig(channels=7, grid_x=gx, grid_y=gy)
            if gx * gy < 5:
                # with 3 cells kept on their own part, the fourth of a 2x2
                # grid has no other source
                with pytest.raises(PreconditionError, match="at least 5 cells"):
                    config.validate()
                continue
            world = synth.gen_world(config, 0)
            parts = world.part_grid.reshape(-1)
            for seed in range(40):
                b = synth.gen_background(world, Rng(seed).gen)
                assert b.features.shape == (7, gx, gy)
            for k in (3, 4):
                src = synth._bg_cell_permutation(world, Rng(k).gen, k)
                assert sorted(src) == list(range(gx * gy))
                assert (parts[src] == parts).sum() == k


def reference_bg_cell_draw(world, gen, n_aligned):
    """`synth._bg_cell_draw` as first written: a stalled swap search spins
    through all of its 10,000 attempts before it gives up."""
    parts = world.part_grid.reshape(-1)
    n = parts.size
    for _ in range(1000):
        order = gen.permutation(n)
        aligned, rest = order[:n_aligned], order[n_aligned:]
        counts = np.bincount(parts[aligned], minlength=parts.max() + 1)
        if (counts <= np.bincount(parts, minlength=parts.max() + 1)).all():
            break
    src = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    for a in aligned:
        cand = np.flatnonzero((parts == parts[a]) & ~used)
        pick = cand[int(gen.integers(0, len(cand)))]
        src[a] = pick
        used[pick] = True
    pool = np.flatnonzero(~used)
    src[rest] = pool[gen.permutation(pool.size)]
    for _ in range(10000):
        bad = rest[parts[src[rest]] == parts[rest]]
        if bad.size == 0:
            return src
        i = bad[0]
        j = rest[int(gen.integers(0, rest.size))]
        if parts[src[j]] != parts[i] and parts[src[i]] != parts[j]:
            src[i], src[j] = src[j], src[i]
    return None


@pytest.mark.slow
@pytest.mark.parametrize("gx, gy", [(3, 2), (4, 2), (2, 3), (3, 3)])
def test_backgrounds_equal_the_full_swap_search(monkeypatch, gx, gy):
    # grids where draws stall; an early give-up must leave the stream where
    # the full search would, so every background comes out the same
    world = synth.gen_world(synth.WorldConfig(channels=7, grid_x=gx, grid_y=gy), 0)
    got = [synth.gen_background(world, Rng(seed).gen) for seed in range(120)]
    monkeypatch.setattr(synth, "_bg_cell_draw", reference_bg_cell_draw)
    want = [synth.gen_background(world, Rng(seed).gen) for seed in range(120)]
    for a, b in zip(got, want):
        assert a.features.tobytes() == b.features.tobytes()
        assert (a.scale, a.score) == (b.scale, b.score)


class CountingGenerator(np.random.Generator):
    """A numpy generator that counts its `integers` calls."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.integer_calls = 0

    def integers(self, *args, **kwargs):
        self.integer_calls += 1
        return super().integers(*args, **kwargs)


def test_a_stalled_background_draw_gives_up_at_once():
    world = synth.gen_world(synth.WorldConfig(channels=7, grid_x=3, grid_y=2), 0)
    stalls = 0
    for seed in range(40):
        gen = CountingGenerator(Rng(seed).gen.bit_generator)
        if synth._bg_cell_draw(world, gen, 3) is None:
            stalls += 1
            # the aligned picks, a few swap attempts and one bulk draw, not
            # one call per remaining attempt
            assert gen.integer_calls < 50
    assert stalls > 0


def test_background_redraws_are_bounded(monkeypatch):
    calls = []

    def stalled(world, gen, n_aligned):
        calls.append(n_aligned)
        return None

    monkeypatch.setattr(synth, "_bg_cell_draw", stalled)
    with pytest.raises(PreconditionError, match=f"{synth.MAX_BG_DRAWS} draws"):
        synth.gen_background(WORLD, Rng(0).gen)
    assert len(calls) == synth.MAX_BG_DRAWS


# ---------------------------------------------------------------------------
# the generators against their first form (tests/synth_reference.py)

SMALL_DATA = DataConfig(train_visible=40, train_occluded=40,
                        train_background=40, eval_pedestrians=40,
                        eval_background=40)
REFERENCE_WORLDS = {
    "default": synth.WorldConfig(),
    "noise-free": synth.WorldConfig(sigma_id=0.0),
    "qr-basis": synth.WorldConfig(channels=12),
    # small grids, where background swap searches stall and redraw
    "grid-2x3": synth.WorldConfig(channels=7, grid_x=2, grid_y=3),
    "grid-3x2": synth.WorldConfig(channels=7, grid_x=3, grid_y=2),
}


@pytest.mark.parametrize("seed", [0, 11, 42])
@pytest.mark.parametrize("world", sorted(REFERENCE_WORLDS))
def test_synthesis_writes_the_reference_bytes(tmp_path, world, seed):
    config = RunConfig(seed=seed, world=REFERENCE_WORLDS[world],
                       data=SMALL_DATA).validate()
    (tmp_path / "got").mkdir()
    (tmp_path / "want").mkdir()
    synthesize(config, tmp_path / "got")
    synth_reference.synthesize(config, tmp_path / "want")
    for name in ("train.fcds", "eval.fcds", "manifest.json"):
        got = (tmp_path / "got" / name).read_bytes()
        assert got == (tmp_path / "want" / name).read_bytes(), name


def streams(count, seed=2024):
    """`count` labelled streams, each as a re-keyed generator at its start
    and as an `Rng` whose own generator is not used yet."""
    rekeyed = RekeyedGenerator()
    root = Rng(seed)
    for i in range(count):
        stream = root.split(f"k{i}")
        yield rekeyed.start(stream), stream


def test_scale_component_is_the_one_choice_picks():
    cdf, components = synth._scale_mixture(synth.SCALE_MEANS, synth.SCALE_STDS,
                                           synth.SCALE_WEIGHTS)
    assert len(components) == len(cdf) == len(synth.SCALE_WEIGHTS)
    picked = set()
    for gen, stream in streams(12_000):
        comp = bisect_right(cdf, gen.random())
        assert comp == int(stream.gen.choice(len(cdf), p=np.array(synth.SCALE_WEIGHTS)))
        # and both have moved on by the same draws
        assert gen.random() == stream.gen.random()
        picked.add(comp)
    assert picked == set(range(len(cdf)))


def test_scale_draws_equal_the_reference():
    for gen, stream in streams(3000, seed=2025):
        assert synth.sample_scale(gen) == synth_reference.sample_scale(stream)
        assert gen.random() == stream.gen.random()


@pytest.mark.parametrize("name", ["default", "grid-2x3", "grid-3x2"])
def test_background_permutation_equals_the_reference(name):
    # One draw per swap attempt; a stalled search leaves the stream after
    # all BG_SWAPS attempts, however early it gives up.
    world = synth.gen_world(REFERENCE_WORLDS[name], 0)
    parts = world.part_grid.reshape(-1)
    stalls = 0
    for i, (gen, stream) in enumerate(streams(400)):
        k = 3 + i % 2
        got = synth._bg_cell_draw(world, gen, k)
        want = synth_reference.bg_cell_draw(parts, stream, k)
        assert (got is None) == (want is None)
        if got is None:
            stalls += 1
        else:
            assert got == want.tolist()
        assert gen.random() == stream.gen.random()
    assert (stalls > 0) == (name != "default")


# ---------------------------------------------------------------------------
# map statistics at defaults


def test_same_scale_pedestrians_align_on_ninety_pct_of_cells():
    rng = Rng(1000).gen
    fracs = []
    for _ in range(1000):
        scale = synth.sample_scale(rng)
        a = synth.gen_pedestrian(WORLD, scale, rng)
        b = synth.gen_pedestrian(WORLD, scale, rng)
        m = corr_map(a.features, b.features)
        fracs.append(np.mean(m > m.mean()))
    assert np.mean(fracs) >= 0.90


def test_background_maps_sit_mostly_below_their_mean():
    rng = Rng(2000).gen
    below = []
    for _ in range(1000):
        b = synth.gen_background(WORLD, rng)
        m = corr_map(b.features, archetype(WORLD, b.scale))
        below.append(np.mean(m < m.mean()))
    assert np.mean(below) >= 0.60


# ---------------------------------------------------------------------------
# serialization


def _sample_proposals():
    rng = Rng(31).gen
    base = synth.gen_pedestrian(WORLD, 105.0, rng, pid=1)
    mask = synth.sample_mask(WORLD, "left-half", rng)
    occ = synth.gen_occluded(WORLD, base, mask, "pedestrian", rng)
    occ = synth.Proposal(2, occ.label, occ.scale, occ.features, occ.score,
                         visibility=occ.visibility, true_mask=occ.true_mask)
    bg = synth.gen_background(WORLD, rng, pid=3)
    return [base, occ, bg]


def test_roundtrip_bit_exact(tmp_path):
    props = _sample_proposals()
    path = tmp_path / "data.bin"
    synth.write_dataset(props, path)
    back = synth.read_dataset(path)
    assert len(back) == len(props)
    for p, q in zip(props, back):
        assert (p.id, p.label) == (q.id, q.label)
        assert (p.scale, p.score, p.visibility) == (q.scale, q.score, q.visibility)
        assert np.array_equal(p.features, q.features)
        if p.true_mask is None:
            assert q.true_mask is None
        else:
            assert np.array_equal(p.true_mask.grid, q.true_mask.grid)


def test_roundtrip_twice_identical_bytes(tmp_path):
    props = _sample_proposals()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    synth.write_dataset(props, p1)
    synth.write_dataset(synth.read_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_holds_the_file_once(tmp_path):
    # Feature arrays are views of the file's bytes, so reading holds the
    # file once; a copy per field would hold it twice.
    props = [synth.Proposal(i, p.label, p.scale, p.features, p.score,
                            visibility=p.visibility, true_mask=p.true_mask)
             for i, p in enumerate(_sample_proposals() * 44)]
    path = tmp_path / "data.bin"
    synth.write_dataset(props, path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        back = synth.read_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(back) == len(props)
    assert not back[0].features.flags.writeable
    assert peak <= 1.5 * size


def test_roundtrip_empty(tmp_path):
    path = tmp_path / "empty.bin"
    synth.write_dataset([], path, dims=(16, 7, 7))
    assert synth.read_dataset(path) == []


def test_write_empty_needs_positive_dims(tmp_path):
    with pytest.raises(PreconditionError):
        synth.write_dataset([], tmp_path / "empty.bin")
    with pytest.raises(PreconditionError):
        synth.write_dataset([], tmp_path / "empty.bin", dims=(16, 0, 7))


@pytest.mark.parametrize("dims,offset", [((0, 7, 7), 12), ((16, 0, 7), 16),
                                         ((16, 7, 0), 20)])
def test_zero_dim_header_rejected(tmp_path, dims, offset):
    header = synth.DATASET_MAGIC + struct.pack("<IIIII", 1, 0, *dims)
    _expect_format_error(tmp_path, header, offset)


def test_write_rejects_mixed_shapes(tmp_path):
    small = synth.gen_world(synth.WorldConfig(channels=8), 1)
    props = [synth.gen_pedestrian(WORLD, 105.0, Rng(1).gen),
             synth.gen_pedestrian(small, 105.0, Rng(2).gen)]
    with pytest.raises(ShapeMismatchError):
        synth.write_dataset(props, tmp_path / "bad.bin")


def test_write_refuses_dims_the_proposals_do_not_have(tmp_path):
    props = _sample_proposals()
    with pytest.raises(ShapeMismatchError) as err:
        synth.write_dataset(props, tmp_path / "bad.bin", dims=(8, 7, 7))
    assert err.value.got == (16, 7, 7) and err.value.expected == (8, 7, 7)
    assert not (tmp_path / "bad.bin").exists()
    synth.write_dataset(props, tmp_path / "ok.bin", dims=(16, 7, 7))
    assert synth.read_dataset(tmp_path / "ok.bin")[0].features.shape == (16, 7, 7)


def _valid_bytes(tmp_path):
    path = tmp_path / "ok.bin"
    synth.write_dataset(_sample_proposals(), path)
    return bytearray(path.read_bytes()), path


def _expect_format_error(tmp_path, data, offset):
    path = tmp_path / "broken.bin"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError) as err:
        synth.read_dataset(path)
    assert err.value.offset == offset
    return err.value


def test_bad_magic_offset_zero(tmp_path):
    data, _ = _valid_bytes(tmp_path)
    data[0] = ord("X")
    _expect_format_error(tmp_path, data, 0)


def test_bad_version_offset_four(tmp_path):
    data, _ = _valid_bytes(tmp_path)
    data[4] = 99
    _expect_format_error(tmp_path, data, 4)


def test_truncated_header(tmp_path):
    data, _ = _valid_bytes(tmp_path)
    _expect_format_error(tmp_path, data[:10], 4)


def test_bad_label_byte(tmp_path):
    data, _ = _valid_bytes(tmp_path)
    # first proposal starts right after the 24-byte header; label follows id
    data[24 + 8] = 7
    _expect_format_error(tmp_path, data, 32)


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, 0.0])
def test_bad_scale(tmp_path, scale):
    data, _ = _valid_bytes(tmp_path)
    # the scale follows the id and the label byte
    data[24 + 9:24 + 17] = struct.pack("<d", scale)
    _expect_format_error(tmp_path, data, 24 + 9)


def test_bad_mask_flag(tmp_path):
    data, _ = _valid_bytes(tmp_path)
    data[24 + 33] = 9
    _expect_format_error(tmp_path, data, 57)


def test_bad_mask_byte(tmp_path):
    data, _ = _valid_bytes(tmp_path)
    # second proposal carries the mask; it starts after the first record
    first = 24 + 34 + 16 * 49 * 8
    data[first + 34 + 5] = 3
    _expect_format_error(tmp_path, data, first + 34 + 5)


def test_non_finite_feature_rejected(tmp_path):
    data, _ = _valid_bytes(tmp_path)
    feat_at = 24 + 34
    data[feat_at:feat_at + 8] = np.array([np.nan]).tobytes()
    err = _expect_format_error(tmp_path, data, feat_at)
    assert "non-finite" in str(err)


def test_trailing_bytes_rejected(tmp_path):
    data, _ = _valid_bytes(tmp_path)
    n = len(data)
    data.extend(b"xx")
    _expect_format_error(tmp_path, data, n)


def test_truncated_features(tmp_path):
    data, _ = _valid_bytes(tmp_path)
    # the last record's feature block heads the error, not the cut point
    last_features_at = len(data) - 16 * 49 * 8
    _expect_format_error(tmp_path, data[:-3], last_features_at)
