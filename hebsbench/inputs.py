"""Seeded input builders for the benchmark workloads.

Every input is a pure function of ``--seed``: the same seed gives
byte-identical images, a different seed gives different ones.  The program
under test only ever sees the generated images.

* ``album`` — distinct synthetic photos for ``album-cold``, dealt in
  blocks of a full factorial (scene x contrast slice x budget) so every
  seed gets the same content mix.  The synthetic generator seeds each
  image from its name, so every photo carries a unique name.
* ``gallery`` — the 24-photo set ``gallery-remote`` draws from.
* ``clip`` — one video client's frames for ``video-routed``: scenes held
  30-60 frames, +-2-level per-frame sensor noise, hard cuts.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.imaging.image import Image
from repro.imaging.synthetic import SyntheticImageSpec, generate

#: Scene builders with seeded content (``test_pattern`` ignores its seed,
#: so two photos of it would share a histogram and a cache entry).
SCENES = ("portrait", "landscape", "still_life", "texture", "low_key",
          "architecture")

#: The paper's distortion budgets, cycled by ``album-cold``.
ALBUM_BUDGETS = (5.0, 10.0, 20.0)
#: Requests in one ``album-cold`` block: every scene with every one of six
#: contrast slices, at every budget, once.
ALBUM_BLOCK = len(SCENES) ** 2 * len(ALBUM_BUDGETS)

GALLERY_SIZE = 24
GALLERY_BUDGET = 10.0
VIDEO_BUDGET = 10.0
IMAGE_SIZE = (128, 128)


def _rng(seed: int, stream: str) -> np.random.Generator:
    """An independent random stream per (seed, purpose)."""
    return np.random.default_rng([int(seed), *stream.encode("ascii")])


def _looks(rng: np.random.Generator, budgets: int = 1,
           ) -> Iterator[tuple[str, float, float]]:
    """Endless (scene, key, contrast) draws in blocks of a full factorial.

    Each block deals every pairing of a scene with one of six contrast
    slices once per budget, in shuffled order, and spreads the keys over
    one slice each.  With ``budgets`` > 1, position ``i`` of the stream is
    meant for budget ``i % budgets``, and every pairing meets every budget
    once per block.  Every seed so gets the same content mix; only the
    order and the draws within a slice differ.
    """
    size = len(SCENES)
    pairs = [(scene, level) for scene in SCENES for level in range(size)]
    block = len(pairs) * budgets
    while True:
        shuffles = [rng.permutation(len(pairs)) for _ in range(budgets)]
        keys = (rng.permutation(block) + rng.random(block)) / block
        for position in range(block):
            scene, level = pairs[shuffles[position % budgets][
                position // budgets]]
            contrast = (level + rng.random()) / size
            yield (scene, 0.35 + 0.25 * float(keys[position]),
                   0.70 + 0.60 * contrast)


def _photos(seed: int, prefix: str, count: int,
            budgets: int = 1) -> list[Image]:
    looks = _looks(_rng(seed, prefix), budgets)
    return [generate(SyntheticImageSpec(f"{prefix}-{seed}-{index}", *look,
                                        size=IMAGE_SIZE))
            for index, look in zip(range(count), looks)]


def album(seed: int, count: int) -> list[Image]:
    """``count`` distinct photos, requested once each by ``album-cold``;
    photo ``i`` is requested at :func:`album_budget` ``(i)``."""
    return _photos(seed, "album", count, budgets=len(ALBUM_BUDGETS))


def album_budget(index: int) -> float:
    """The distortion budget of ``album-cold``'s ``index``-th request."""
    return ALBUM_BUDGETS[index % len(ALBUM_BUDGETS)]


def gallery(seed: int) -> list[Image]:
    """The photo viewer's set of ``GALLERY_SIZE`` photos."""
    return _photos(seed, "gallery", GALLERY_SIZE)


def gallery_order(seed: int, client: int, count: int) -> list[int]:
    """The photo indices one ``gallery-remote`` client requests, in order."""
    rng = _rng(seed, f"gallery-order-{client}")
    return [int(index) for index in rng.integers(0, GALLERY_SIZE, size=count)]


def clip(seed: int, client: int) -> Iterator[Image]:
    """One video client's endless frame stream: held scenes with sensor
    noise and hard cuts.  Frames are made on demand (a long clip does not
    fit in memory); the stream is the same for the same seed."""
    rng = _rng(seed, f"clip-{client}")
    for scene, look in enumerate(_looks(rng)):
        base = generate(SyntheticImageSpec(
            f"clip-{seed}-{client}-{scene}", *look,
            size=IMAGE_SIZE)).pixels.astype(np.int16)
        for _ in range(int(rng.integers(30, 61))):
            noise = rng.integers(-2, 3, size=base.shape, dtype=np.int16)
            yield Image(np.clip(base + noise, 0, 255).astype(np.uint8))
