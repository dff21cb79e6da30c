import pytest


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def images_table():
    from sidecar import synth

    return synth.make_images_table(200, seed=42)


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name) -> list: wrap ``owner.name`` so each call appends its
    positional args to the returned list, then runs the real function.
    Tests use it to check which plan a broadcast-vs-partitioned site took."""
    def install(owner, name):
        real, calls = getattr(owner, name), []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return install
