"""The two views a run artifact derives on demand, by the recipe in
``docs/TELEMETRY.md``: the Chrome trace from the stored event rows and
the Prometheus text from the manifest's registry snapshot."""

import json

from repro.telemetry import MetricsRegistry, RunArtifact, chrome_trace_dict


def as_parsed(doc):
    """``doc`` as its JSON text parses back (tuples become lists)."""
    return json.loads(json.dumps(doc))


def chrome_doc(directory):
    """The Chrome trace document derived from ``directory``, as parsed JSON."""
    art = RunArtifact.load(directory)
    rows = art.read_events(directory)
    return as_parsed(chrome_trace_dict(rows, num_cores=art.num_cores))


def prometheus_text(directory):
    """The Prometheus text of the registry rebuilt from ``directory``'s
    manifest (no ``# HELP`` lines: the snapshot keeps no help text)."""
    registry = MetricsRegistry()
    registry.merge_snapshot(RunArtifact.load(directory).metrics["registry"])
    return registry.to_prometheus()
