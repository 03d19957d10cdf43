"""The traced benchmark (``perfbench/probes.py``) wraps library functions
where they are bound, by name.  A rename in the library must fail here, not in
a traced benchmark run; the probes are only looked up, never installed."""

import importlib
import importlib.util
from pathlib import Path

PROBES_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


def _probe_table() -> dict:
    spec = importlib.util.spec_from_file_location("fsgame_bench_probes", PROBES_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PROBES


def test_every_probe_site_resolves():
    sites = [(name, site, attr) for name, pairs in _probe_table().items() for site, attr in pairs]
    assert sites
    for name, site, attr in sites:
        module, _, cls = site.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), f"probe {name}: {site}.{attr} is gone"
