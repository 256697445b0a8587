"""The benchmark's view of the program, checked as part of the test suite.

`perfbench/selftest.py` makes one real output per workload and shows that
its check accepts it and rejects every corruption, so a change to the
output of `validate` or `reproduce` that the benchmark would refuse fails
here too.  Its scratch files go under the git-ignored `perfbench/.work/`.

`perfbench/child.py` wraps the program's layers by name for its per-layer
metrics; a rename it does not follow fails here rather than only in a
traced benchmark run.  The file is loaded without writing anything under
`perfbench/`.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

from cogecon import consumption
from cogecon.config import default_config
from cogecon.rng import RngSpec

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


class RecordingTracer:
    """Tracer stand-in that keeps what install_tracing asks it to wrap."""

    def __init__(self) -> None:
        self.functions, self.methods = [], []

    def patch_function(self, fn, name, count=None) -> None:
        self.functions.append((fn, name, count))

    def patch_method(self, cls, attr, name, count=None) -> None:
        self.methods.append((cls, attr, name, count))


def test_every_layer_the_benchmark_traces_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_child",
                                                  ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    tracer = RecordingTracer()
    child.install_tracing(tracer)
    for fn, _, _ in tracer.functions:
        assert getattr(sys.modules[fn.__module__], fn.__name__) is fn
    for cls, attr, _, _ in tracer.methods:
        assert attr in cls.__dict__, f"{cls.__name__}.{attr}"

    # Figure 6's path-step counter, on the call the default figure makes.
    counters = {name: count for fn, name, count in tracer.functions}
    calls = []
    real = consumption.simulate_ou_reflected

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(consumption, "simulate_ou_reflected", recording)
    consumption.cawf_montecarlo(default_config().cawf_params(), RngSpec(1, stream_id=6))
    (args, kwargs, result), = calls
    assert set(kwargs) <= {"record_times"}
    args = (*args, *kwargs.values())  # (spec, rng, n_paths, record_times)
    count = counters["sde.ou_reflected"]
    assert count(args, {}, result) == ("sde.ou_path_steps", 6_000_000)
    assert count(args[:3], {"record_times": args[3]}, result) == ("sde.ou_path_steps", 6_000_000)
