"""The command-line entry points, and a script whose session starts with a
read, leave no process running after they exit.

Each command runs in a new session with no ``RAY_ADDRESS``, so it starts
and stops its own local Ray.  Once it has exited, every process still in
its session (Ray's GCS, raylet and workers, or anything the command
spawned) is a leak: the test lists their command lines, kills them and
fails.  Processes are found through ``/proc`` (``psutil`` is not a
dependency)."""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
SETTLE_S = 10  # how long a command's processes may take to exit after it


def _session_procs(sid: int) -> list[tuple[int, str]]:
    """(pid, cmdline) of each live process in session ``sid``.  Zombies
    are skipped: they have exited and wait only to be reaped."""
    procs = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        pid = int(entry)
        try:
            if os.getsid(pid) != sid:
                continue
            with open(f"/proc/{pid}/stat", "rb") as f:
                state = f.read().rsplit(b")", 1)[1].split()[0]
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode(errors="replace")
        except (OSError, IndexError):  # exited while we looked
            continue
        if state != b"Z":
            procs.append((pid, cmd.strip()))
    return procs


def _run_leaving_nothing(args: list[str], log: pathlib.Path,
                         timeout: float = 600) -> None:
    """Run ``python <args>`` to completion, then assert that nothing of its
    session outlives it."""
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    with open(log, "wb") as out:  # a file, not a pipe a leak could hold open
        proc = subprocess.Popen([sys.executable, *args], cwd=REPO,
                                env=env, stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    deadline = time.monotonic() + SETTLE_S
    left = _session_procs(proc.pid)
    while left and time.monotonic() < deadline:
        time.sleep(0.2)
        left = _session_procs(proc.pid)
    for pid, _ in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert rc == 0, log.read_text(errors="replace")[-4000:]
    assert not left, f"still running {SETTLE_S} s after exit: {left}"


def test_sidecar_all_leaves_no_process(tmp_path):
    from sidecar import warc

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    body = b"<html><head><title>x</title></head><body>hello</body></html>"
    (corpus / "one.warc").write_bytes(
        warc.warcinfo_record_text("one.warc").encode()
        + (b"WARC/1.0\r\nWARC-Type: response\r\n"
           b"WARC-Target-URI: https://example.com/a\r\n"
           b"WARC-Date: 2021-03-01T10:00:00Z\r\n"
           b"Content-Length: %d\r\n\r\n" % len(body)) + body + b"\r\n\r\n")
    _run_leaving_nothing(["-m", "sidecar.cli", "sidecar-all", str(corpus)],
                         tmp_path / "sidecar_all.log")
    assert (corpus / "one.warc.meta.gz").exists()


def test_crawl_leaves_no_process(tmp_path):
    """The crawl's pooled state actors and the engine's start-up (Ray
    Data's stats actor, the import tasks) end with the command's Ray
    session."""
    _run_leaving_nothing(["-m", "sidecar.crawl", "--n-seeds", "20",
                          "--max-epochs", "2", "--num-seen-shards", "2",
                          "--num-policy-actors", "2", "--out-dir",
                          str(tmp_path / "crawl")],
                         tmp_path / "crawl.log")
    assert (tmp_path / "crawl" / "_ckpt" / "epoch=1" / "manifest.json").exists()


def test_session_that_starts_with_a_read_leaves_no_process(tmp_path):
    """The first read of a session starts Ray Data's stats actor (a
    detached actor) and one import task per CPU slot; both end with the
    session."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    path = tmp_path / "t.parquet"
    pq.write_table(pa.table({"x": list(range(10))}), path)
    script = ("import sys, ray\n"
              "from sidecar import storage\n"
              "ray.init(num_cpus=2, include_dashboard=False)\n"
              "assert storage.read_parquet_clean(sys.argv[1]).count() == 10\n"
              "ray.shutdown()\n")
    _run_leaving_nothing(["-c", script, str(path)], tmp_path / "read.log")
