"""Call-graph resolution golden tests."""

from __future__ import annotations

from typing import Dict

from repro.analysis.flow.callgraph import build_callgraph
from repro.analysis.flow.symbols import FlowProject

_FILES = {
    "repro/core.py": (
        "class Engine:\n"
        "    def __init__(self, width: int):\n"
        "        self.width = width\n"
        "\n"
        "    def step(self):\n"
        "        return self._advance()\n"
        "\n"
        "    def _advance(self):\n"
        "        return self.width\n"
        "\n"
        "def run(engine: Engine):\n"
        "    return engine.step()\n"
    ),
    "repro/app.py": (
        "import numpy as np\n"
        "from repro.core import Engine, run\n"
        "\n"
        "def main():\n"
        "    engine = Engine(4)\n"
        "    buffer = np.zeros(4)\n"
        "    return run(engine), buffer\n"
    ),
}


def _graph(files: Dict[str, str]):
    return build_callgraph(FlowProject(sorted(files.items())))


def test_callgraph_golden_payload():
    graph = _graph(_FILES)
    assert sorted(graph.sites) == [
        "repro.app.main",
        "repro.core.Engine.__init__",
        "repro.core.Engine._advance",
        "repro.core.Engine.step",
        "repro.core.run",
    ]
    assert graph.edges() == [
        # main -> Engine() resolves to the constructor's __init__ ...
        ("repro.app.main", "repro.core.Engine.__init__"),
        # ... and main -> run via the imported member.
        ("repro.app.main", "repro.core.run"),
        # self-method resolution inside the class ...
        ("repro.core.Engine.step", "repro.core.Engine._advance"),
        # ... and annotated-parameter resolution for engine.step().
        ("repro.core.run", "repro.core.Engine.step"),
    ]
    sites = [site for sites in graph.sites.values() for site in sites]
    assert [site.external for site in sites if site.external] == ["numpy.zeros"]
    assert [site.unresolved_attr for site in sites if site.unresolved_attr] == []


def test_fallback_never_resolves_builtin_container_methods():
    files = {
        "repro/log.py": (
            "class EventLog:\n"
            "    def __init__(self):\n"
            "        self._events = []\n"
            "\n"
            "    def append(self, event):\n"
            "        self._events.append(event)\n"
        ),
        "repro/user.py": (
            "def collect(events):\n"
            "    out = []\n"
            "    for event in events:\n"
            "        out.append(event)\n"
            "    return out\n"
        ),
    }
    # `out.append(...)` must NOT resolve to EventLog.append, even though it
    # is the unique project function with that bare name.
    assert ("repro.user.collect", "repro.log.EventLog.append") not in (
        _graph(files).edges()
    )
