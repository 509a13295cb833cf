"""Every section of ``solve_digest.py`` against its pinned digest.

The digests hash every float bit for bit, so they hold only for the numpy
version and the machine type they were taken with; anywhere else the test
skips and names both.  No section computes anything with scipy, so its
version is not pinned.  A change that alters results on purpose updates
the pins in the same diff and names the sections it changed.
"""

import platform

import numpy as np
import pytest

import solve_digest

PINNED_WITH = {"numpy": "2.4.6", "machine": "x86_64"}
PINNED = {
    "models": "a3b33943e6eb1e4f921a86f0a3f48da7",
    "schedules": "e0d1e01bb9d995f62261d6e6f322455f",
    "random": "4d131c176e4baf1e3a756c92ab3c9f8f",
    "hungarian": "4c7762875c8d6696b36e50b6fe493aab",
    "injective": "e3d770f9ec6f4cd333e455baec62e22b",
    "parse": "70cba5cb76dd6ea3cf02defeb09c1d3e",
    "bench": "8b4e7a6c6dc820d9e4ee1fdeea84441f",
    "pulls": "87308a6199686acef29fd63ab57fb5a8",
    "coordinate_pulls": "ef59ec5a5a52f88708979d477f35bacb",
    "delaunay": "4ad35cd66c860f558d126be951fee5cf",
    "oracle": "cef65a41c635060d36af56e5c2357985",
}


def test_every_section_is_pinned():
    assert [name for name, _ in solve_digest.SECTIONS] == list(PINNED)


@pytest.mark.parametrize(
    "name, feed_section", solve_digest.SECTIONS, ids=[n for n, _ in solve_digest.SECTIONS]
)
def test_section_matches_its_pinned_digest(name, feed_section):
    here = {"numpy": np.__version__, "machine": platform.machine()}
    if here != PINNED_WITH:
        pytest.skip(f"digests pinned with {PINNED_WITH}, running with {here}")
    assert solve_digest.section_digest(feed_section) == PINNED[name]
