import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)


@pytest.fixture(scope="session")
def ray_session():
    import ray

    os.environ["PYTHONPATH"] = ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")
    ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
             include_dashboard=False, ignore_reinit_error=True,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=256 << 20)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()
