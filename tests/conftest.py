import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from mbpilab import stable_model

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("mbpilab", derandomize=True, database=None,
                          deadline=None, max_examples=50)
settings.load_profile("mbpilab")


@pytest.fixture(scope="session", autouse=True)
def _hypothesis_storage(tmp_path_factory):
    """hypothesis caches the constants it finds in local source files; keep
    that cache in pytest's temporary directory, not in a .hypothesis/ of the
    working tree."""
    set_hypothesis_home_dir(tmp_path_factory.mktemp("hypothesis"))


@pytest.fixture(scope="session")
def g025():
    """Canonical positive-recurrent pairing: gamma = 0.25."""
    return stable_model(nu=0.5, c=1.0, delta=0.75, d=0.25)


@pytest.fixture(scope="session")
def gneg():
    """Canonical transient pairing: gamma = -0.25, mu = 0.25, d/c = |gamma|."""
    return stable_model(nu=0.75, c=1.0, delta=0.5, d=0.25)


@pytest.fixture(scope="session")
def gneg_pert():
    """Transient pairing with a genuine immigration-tail remainder."""
    return stable_model(nu=0.75, c=1.0, delta=0.5, d=0.25,
                        kappa_immigration=1.0)


@pytest.fixture(scope="session")
def g025_pert_off():
    """Recurrent pairing with perturbed offspring tail L(x) = 1 + x**-0.5."""
    return stable_model(nu=0.5, c=1.0, delta=0.75, d=0.25,
                        kappa_offspring=1.0)


@pytest.fixture(scope="session")
def g025_pert_imm():
    """Recurrent pairing with perturbed immigration tail."""
    return stable_model(nu=0.5, c=1.0, delta=0.75, d=0.25,
                        kappa_immigration=0.2)


@pytest.fixture(scope="session")
def g025_small():
    """Short-truncation variant for simulation-heavy tests."""
    return stable_model(nu=0.5, c=1.0, delta=0.75, d=0.25, J=500)


@pytest.fixture
def run_task(tmp_path):
    """``run_task(task, **keys)``: run a g025 config of ``task``, with
    ``keys`` set in their sections, through ``cli.run_config``; returns the
    exit code and the output directory."""
    from mbpilab.cli import SCHEMA, run_config

    def run(task, **keys):
        out = tmp_path / "out"
        sections = {"model": {"nu": "0.5", "delta": "0.75"},
                    "task": {"name": task}, "output": {"dir": str(out)}}
        for key, value in keys.items():
            next(section for name, section in sections.items()
                 if key in SCHEMA[name])[key] = value
        path = tmp_path / "config.ini"
        path.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in section.items())
            for name, section in sections.items()))
        return run_config(str(path)), out

    return run


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
