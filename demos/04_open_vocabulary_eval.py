"""Open-vocabulary evaluation: scoring labels the model never trained on.

Because label queries are text embeddings, the trained decoder can score any
class name, including the ones held out of training. This script evaluates
the checkpoint from the training demo through ``open_vocab_report``: one
decoder forward over every class of the world, whose columns are sliced into
the seen and the unseen classes, beside the decoder-free cosine baseline
(each image's global embedding against each label embedding) on the same
images.
"""

from pathlib import Path

from adds.checkpoint import load_checkpoint
from adds.training import TrainConfig, build_world, open_vocab_report, open_vocab_split

CKPT = Path(__file__).resolve().parent / "out" / "demo_checkpoint.adds"
N_EVAL = 150
EVAL_SEED = 99


def main():
    if not CKPT.exists():
        raise SystemExit("run demos/03_train_synthetic.py first")
    ckpt = load_checkpoint(CKPT)
    config = TrainConfig.from_dict(ckpt.config)
    seen, unseen = open_vocab_split(build_world(config).class_names, config.n_seen)
    print(f"seen classes:   {', '.join(seen)}")
    print(f"unseen classes: {', '.join(unseen)}")

    report = open_vocab_report(ckpt, n_eval=N_EVAL, eval_seed=EVAL_SEED)
    print(f"\nmAP over {N_EVAL} fresh images:")
    print(f"{'vocabulary':<12} {'decoder':>9} {'cosine':>9}")
    for group in ("seen", "unseen", "all"):
        print(f"{group:<12} {report['decoder'][group]:>9.3f} {report['cosine'][group]:>9.3f}")

    print("\nthe decoder should dominate on seen classes and still beat the")
    print("baseline on unseen ones, since label queries share one aligned space")


if __name__ == "__main__":
    main()
