import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("default", deadline=None, max_examples=50)
settings.load_profile("default")


@pytest.fixture(scope="session")
def src_env():
    """Environment for a child Python process that imports polarlex from src/."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env
