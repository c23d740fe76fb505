"""The benchmark wraps secflow's layer functions by name from outside
(`perfbench/spans.py`). A rename under src/ must fail here, in a second, and
not only when the benchmark runs."""

from perfbench import spans
from secflow import rl, sim


def test_every_wrapped_site_exists():
    sites = [site for _, _, owner_sites in spans.WIRING for site in owner_sites]
    sites += [(sim, "run_instance"), (rl, "run_training_episode")]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in sites
               if attr not in owner.__dict__]
    assert not missing, f"the benchmark wraps names that are gone: {missing}"
