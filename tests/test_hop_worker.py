"""The hop worker: mixhop_conv runs the second edge direction's chain on one
worker thread for large enough hops, with the bytes the calling thread alone
gives, and leaves no thread behind it that a caller could trip over: none at
import, a fresh one in a forked child, and every path joins it.
"""

import hashlib
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from ensograph import adiff, cube, grid, samples, stgnn, synth, train
from ensograph.adiff import Tensor, backward, mul, reduce_sum
from ensograph.stgnn import ModelConfig, ModelParams, forward, init_params
from ensograph.train import TrainConfig, mae_loss
from helpers import python_output, tiny_config


def _record_hop_threads(monkeypatch) -> list[str]:
    """The names of the threads the hop chains run on, one per chain, as they run."""
    ran = []
    for name in ("_hop_chain", "_hop_chain_grad"):
        inner = getattr(stgnn, name)

        def recorded(*args, inner=inner):
            ran.append(threading.current_thread().name)
            return inner(*args)

        monkeypatch.setattr(stgnn, name, recorded)
    return ran


def _worker_mode(monkeypatch, on: bool) -> list[str]:
    """Make the worker run on every mix-hop (on) or on none; returns _record_hop_threads' list."""
    monkeypatch.setattr(stgnn, "_THREAD_MIN", 0 if on else 1 << 62)
    monkeypatch.setattr(stgnn, "_cpus", lambda: 2)
    return _record_hop_threads(monkeypatch)


def _digest(arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


def _gate_fingerprints() -> dict[str, str]:
    """Hashes of gate-config forwards, of every parameter gradient at batch 31 (single
    windows) and 32 (4 runs of 8), of the parameters after 2 epochs at both batch
    sizes, and of a detached 66-month horizon-7 forward."""
    rng = np.random.default_rng(0)
    cfg = ModelConfig(n_nodes=130, horizon=4)
    out = {}
    for rows, months in ((31, 3), (4, 10)):
        params = init_params(cfg, seed=1)
        pred = forward(params, cfg, Tensor(rng.standard_normal((rows, 1, 130, months)).astype(np.float32)))
        out[f"forward {rows}x{months}"] = _digest([pred.data])
        backward(mae_loss(pred, Tensor(rng.standard_normal(pred.shape).astype(np.float32))))
        out[f"gradients {rows}x{months}"] = _digest([t.grad for _, t in params.items()])
    cfg7 = ModelConfig(n_nodes=130, horizon=7)
    detached = ModelParams({n: Tensor(t.data) for n, t in init_params(cfg7, seed=2).items()})
    x = rng.standard_normal((1, 1, 130, 66)).astype(np.float32)
    out["eval forward"] = _digest([forward(detached, cfg7, Tensor(x)).data])
    data, _ = synth.generate(synth.SynthConfig(seed=0))
    nodes = grid.region_nodes(data.grid, grid.ONI_BOX)
    windows = samples.make_samples(cube.split_by_years(data, (1900, 1979)), nodes, cfg.window, cfg.horizon)
    for batch in (31, 32):
        result = train.train(cfg, TrainConfig(epochs=2, batch_size=batch), windows)
        out[f"parameters batch {batch}"] = _digest([t.data for _, t in result.params.items()])
        out[f"losses batch {batch}"] = repr((result.history.train_loss, result.history.val_loss))
    return out


def test_the_worker_never_changes_a_byte(monkeypatch):
    ran = _worker_mode(monkeypatch, on=True)
    threaded = _gate_fingerprints()
    assert ran and set(ran) >= {"MainThread"} and any(name.startswith("ensograph-hops") for name in ran)
    monkeypatch.undo()
    ran = _worker_mode(monkeypatch, on=False)
    inline = _gate_fingerprints()
    assert ran and set(ran) == {"MainThread"}
    assert threaded == inline


def test_small_hops_and_one_cpu_stay_on_the_calling_thread(monkeypatch):
    ran = _record_hop_threads(monkeypatch)
    cfg = tiny_config()
    x = Tensor(np.random.default_rng(3).standard_normal((2, 1, cfg.n_nodes, cfg.window)).astype(np.float32))
    target = Tensor(np.zeros((2, cfg.horizon, cfg.n_nodes), np.float32))
    backward(mae_loss(forward(init_params(cfg), cfg, x), target))  # under the module's own _THREAD_MIN
    monkeypatch.setattr(stgnn, "_THREAD_MIN", 0)
    monkeypatch.setattr(stgnn, "_cpus", lambda: 1)
    backward(mae_loss(forward(init_params(cfg), cfg, x), target))
    assert len(ran) == 8 * cfg.layers and set(ran) == {"MainThread"}


def test_a_process_on_one_cpu_never_starts_the_worker():
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no sched_setaffinity on this platform")
    script = (
        "import os, threading\n"
        "import numpy as np\n"
        "from ensograph import stgnn\n"
        "from ensograph.adiff import Tensor\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "stgnn._THREAD_MIN = 0\n"
        "cfg = stgnn.ModelConfig(n_nodes=130, horizon=4)\n"
        "x = Tensor(np.zeros((4, 1, 130, 10), np.float32))\n"
        "stgnn.forward(stgnn.init_params(cfg), cfg, x)\n"
        "print(stgnn._worker, threading.active_count())\n"
    )
    assert python_output(script) == ["None 1"]


def test_importing_the_package_starts_no_thread_and_no_executor():
    script = (
        "import importlib, pkgutil, sys, threading\n"
        "import ensograph\n"
        "for mod in pkgutil.iter_modules(ensograph.__path__):\n"
        "    if mod.name != '__main__':\n"
        "        importlib.import_module('ensograph.' + mod.name)\n"
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)\n"
    )
    assert python_output(script) == ["1 False"]


def test_the_process_keeps_one_worker_thread(monkeypatch):
    _worker_mode(monkeypatch, on=True)
    cfg = tiny_config()
    x = Tensor(np.random.default_rng(4).standard_normal((2, 1, cfg.n_nodes, cfg.window)).astype(np.float32))
    for _ in range(3):
        backward(mae_loss(forward(init_params(cfg), cfg, x), Tensor(np.zeros((2, cfg.horizon, cfg.n_nodes)))))
    assert len([t for t in threading.enumerate() if t.name.startswith("ensograph-hops")]) == 1


def test_both_joins_the_worker_on_every_path(monkeypatch):
    monkeypatch.setattr(stgnn, "_cpus", lambda: 2)
    finished = []

    def slow():
        time.sleep(0.2)
        finished.append(threading.current_thread().name)

    def fails_here():
        raise RuntimeError("here")

    with pytest.raises(RuntimeError, match="here"):
        stgnn._both(fails_here, slow, 1 << 62)
    assert len(finished) == 1 and finished[0].startswith("ensograph-hops")

    def fails_there():
        time.sleep(0.1)
        raise ValueError("there")

    ran = []
    with pytest.raises(ValueError, match="there"):
        stgnn._both(lambda: ran.append(1), fails_there, 1 << 62)
    assert ran == [1]
    assert stgnn._both(lambda: "here's value", slow, 1 << 62) == "here's value"
    assert len(finished) == 2


def test_a_forked_child_makes_its_own_worker(monkeypatch):
    # the parent's worker exists before the fork; a child that reused the copied
    # executor would queue its hops for a thread that no longer runs, and hang
    _worker_mode(monkeypatch, on=True)
    cfg = tiny_config()
    x = Tensor(np.random.default_rng(5).standard_normal((2, 1, cfg.n_nodes, cfg.window)).astype(np.float32))
    params = init_params(cfg)
    want = forward(params, cfg, x).data.tobytes()
    parent_worker = stgnn._worker
    assert parent_worker is not None and parent_worker[0] == os.getpid()
    with warnings.catch_warnings():
        # forking a process that runs threads is what this test does on purpose
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            got = forward(params, cfg, x).data.tobytes()
            code = 0 if got == want and stgnn._worker[0] == os.getpid() else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("a forward in a forked child did not return within 60 s")
        time.sleep(0.01)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, f"child status {status}"
    assert stgnn._worker is parent_worker


def test_the_worker_allocates_no_array_data(monkeypatch):
    # each worker job runs while the calling thread waits, so the traced peak
    # over the job is the worker's own; one [N, N] array at N = 130 is 67.6 KB
    _worker_mode(monkeypatch, on=True)
    both = stgnn._both
    peaks = []

    def measured(here, there, madds):
        done = threading.Event()

        def there_measured():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            there()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            done.set()

        def here_after():
            done.wait()
            return here()

        return both(here_after, there_measured, madds)

    monkeypatch.setattr(stgnn, "_both", measured)
    cfg = ModelConfig(n_nodes=130, horizon=4)
    params = init_params(cfg, seed=1)
    x = Tensor(np.random.default_rng(6).standard_normal((4, 1, 130, 10)).astype(np.float32))
    tracemalloc.start()
    try:
        pred = forward(params, cfg, x)
        backward(mae_loss(pred, Tensor(np.zeros(pred.shape, np.float32))))
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2 * cfg.layers
    assert max(peaks) < 16 << 10, f"traced bytes allocated by worker jobs: {peaks}"


def _mixhop_gradients(rng_seed: int, N: int):
    """Gradients of h, hops, w and b of a float64 depth-2 mix-hop at N nodes."""
    rng = np.random.default_rng(rng_seed)
    raw = rng.uniform(0.0, 1.0, (2, N, N)) + np.eye(N)
    arrays = [rng.standard_normal((N, 3, 2, 4)), 0.95 * raw / raw.sum(axis=2, keepdims=True),
              rng.uniform(-0.5, 0.5, (20, 4)), rng.uniform(-0.5, 0.5, 4)]
    h, hops, w, b = [Tensor(a, requires_grad=True) for a in arrays]
    probe = Tensor(rng.standard_normal((N, 3, 2, 4)))
    backward(reduce_sum(mul(stgnn.mixhop_conv(h, hops, 0.05, 2, w, b), probe)))
    return [t.grad for t in (h, hops, w, b)]


def test_the_worker_sums_long_node_contractions_in_pieces(monkeypatch):
    # at N = 300 each m^T @ G contracts over more than one piece, through the scratch slot
    ran = _worker_mode(monkeypatch, on=True)
    pieced = _mixhop_gradients(7, 300)
    assert any(name.startswith("ensograph-hops") for name in ran)
    monkeypatch.setattr(adiff, "_PIECE", 1 << 20)
    whole = _mixhop_gradients(7, 300)
    for got, want in zip(pieced, whole):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def _mixhop_bytes(arrays) -> bytes:
    """The output and gradient bytes of one float32 depth-2 mix-hop forward and backward."""
    h, hops, w, b, probe = [Tensor(a.copy(), requires_grad=i < 4) for i, a in enumerate(arrays)]
    out = stgnn.mixhop_conv(h, hops, 0.05, 2, w, b)
    backward(reduce_sum(mul(out, probe)))
    return out.data.tobytes() + b"".join(t.grad.tobytes() for t in (h, hops, w, b))


def test_calling_threads_share_the_worker(monkeypatch):
    # four calling threads on two cores hand their second directions to the one worker
    rng = np.random.default_rng(8)
    raw = rng.uniform(0.0, 1.0, (2, 40, 40)) + np.eye(40)
    arrays = [rng.standard_normal((40, 6, 3, 8)), 0.95 * raw / raw.sum(axis=2, keepdims=True),
              rng.uniform(-0.5, 0.5, (40, 8)), rng.uniform(-0.5, 0.5, 8), rng.standard_normal((40, 6, 3, 8))]
    arrays = [a.astype(np.float32) for a in arrays]
    ran = _worker_mode(monkeypatch, on=False)
    want = _mixhop_bytes(arrays)
    monkeypatch.setattr(stgnn, "_THREAD_MIN", 0)
    results = []
    threads = [threading.Thread(target=lambda: results.extend(_mixhop_bytes(arrays) for _ in range(10)))
               for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 40 and all(r == want for r in results)
    assert sum(name.startswith("ensograph-hops") for name in ran) == 40 * 2
