"""Generator determinism: the same seed gives the same bytes."""

import generate
import pytest


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(generate, "TEXT_BYTE_SYMBOLS", 20_000)
    monkeypatch.setattr(generate, "PIXEL_IMAGES", 20)
    monkeypatch.setattr(generate, "WORD_TOKENS", 2_000)
    monkeypatch.setattr(generate, "FIT_CURVES_PER_LAW", 2)
    monkeypatch.setattr(generate, "FIT_NOISE_CURVES", 1)


@pytest.mark.parametrize("workload", ["text-byte", "idx-pixel", "text-word", "fit-batch"])
def test_same_seed_same_files_other_seed_other_files(small, tmp_path, workload):
    def files(seed, name):
        paths = generate.write_inputs(workload, seed, tmp_path / name)
        return [(p.name, p.read_bytes()) for p in paths]

    assert files(7, "a") == files(7, "b")
    assert files(7, "a") != files(8, "c")


def test_copy_process_copies_only_from_the_past():
    rng = generate.np.random.default_rng(0)
    fresh = generate.np.arange(5_000)
    out = generate.copy_process(rng, 5_000, fresh, p_copy=0.5, tail=0.8)
    # every symbol is the fresh symbol of itself or of an earlier position
    assert (out <= fresh).all()
    assert (out < fresh).mean() > 0.3


def test_fit_curves_cover_every_law(small):
    names = [name for name, _ in generate.fit_curves(1)]
    assert {n.split("-")[1][:-4] for n in names} == {*generate.LAWS, "noise"}
