"""The traced benchmark (``perfbench/probes.py``) wraps library functions
where they are bound, by name.  A rename in the library must fail here, not in
a traced benchmark run; the probes are only looked up, never installed."""

import importlib
import importlib.util
from collections.abc import Sized
from pathlib import Path

from fsgame.game import GamePosition

PROBES_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


def _probes():
    spec = importlib.util.spec_from_file_location("fsgame_bench_probes", PROBES_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _site(site: str, attr: str):
    module, _, cls = site.partition(":")
    owner = importlib.import_module(module)
    if cls:
        owner = getattr(owner, cls)
    return getattr(owner, attr, None)


def test_every_probe_site_resolves():
    sites = [(name, site, attr) for name, pairs in _probes().PROBES.items() for site, attr in pairs]
    assert sites
    for name, site, attr in sites:
        assert callable(_site(site, attr)), f"probe {name}: {site}.{attr} is gone"


def test_sized_probes_return_sized_results(m_empty, m_single):
    # a traced run sums len() of what these probes return, so each must
    # return a sized collection, not an iterator
    inputs = {
        "game.images": (([[0b1, 0b10], [0b100]],), 2),
        "game.partitions": ((0b111,), 4),
        "game.legal_moves": ((GamePosition(1, 0, {m_empty}, {m_single}),), 1),
    }
    probes = _probes()
    assert set(inputs) == set(probes.SIZED)
    for name, (args, size) in inputs.items():
        for site, attr in probes.PROBES[name]:
            result = _site(site, attr)(*args)
            assert isinstance(result, Sized) and len(result) == size, f"probe {name}: {site}.{attr}"
