"""The benchmark's span tracer (``bench/spans.py``), loaded unedited, against
the program it wraps from outside.

The tracer counts ``Tensor.__init__`` calls as graph nodes and walks each
sampled loss's ``_parents`` for the share of nodes that backward reaches.
Refactors of the graph have broken these counts silently before; this runs
one small ``train()`` call traced the way ``Bench._train`` in ``bench/run.py``
traces it.
"""

import importlib.util
from pathlib import Path

from adds import checkpoint, decoder, encoders, metrics, tensor, training
from adds.training import TrainConfig, build_world, train

SPANS = Path(__file__).parents[1] / "bench" / "spans.py"
MODULES = {"adds.training": training, "adds.decoder": decoder, "adds.tensor": tensor,
           "adds.encoders": encoders, "adds.checkpoint": checkpoint, "adds.metrics": metrics}


def new_tracer():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Tracer(MODULES)


def traced_train(cfg, world):
    """(graph nodes per image, reachable fractions) of one traced train() call."""
    tracer = new_tracer()
    with tracer.installed():
        tracer.train_call_started()
        nodes = tracer.nodes_created
        train(cfg, world=world)
    return (tracer.nodes_created - nodes) / (cfg.n_train * cfg.epochs), \
        tracer.counts["reachable_frac"]


def test_tracer_counts_nodes_and_walks_the_graph():
    # 3 steps per call, so the walks sample steps 2 and 3
    cfg = TrainConfig(classes=8, n_seen=6, image_side=64, base_size=32, embed_dim=8,
                      depth=2, ffn_hidden=16, epochs=1, n_train=24, batch_size=8, seed=3)
    world = build_world(cfg)
    nodes, reachable = traced_train(cfg, world)
    assert nodes > 0
    assert len(reachable) == 2 and all(0 < r <= 1 for r in reachable)
    assert traced_train(cfg, world) == (nodes, reachable)


def test_every_wrapped_name_but_the_stale_one_is_found():
    # a deletion that strands a wrapper fails here instead of reading 0 us;
    # encode_tile is the known stale wrapper (the tower now runs encode_tiles)
    tracer = new_tracer()
    with tracer.installed():
        pass
    assert tracer.absent == {"adds.encoders.FrozenImageEncoder.encode_tile"}
