import importlib.util
from pathlib import Path

from adds.checkpoint import load_checkpoint

DEMOS = Path(__file__).parents[1] / "demos"


def load_demo(stem):
    spec = importlib.util.spec_from_file_location(stem, DEMOS / f"{stem}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo


def test_plan_gradient_check_and_training_demos_run(tmp_path, monkeypatch, capsys):
    # demo 04 is run by test_training, on a checkpoint of its own
    load_demo("01_pyramid_plan").main()
    assert capsys.readouterr().out.count("encoder forwards:") == 4
    load_demo("02_gradient_check").main()
    out = capsys.readouterr().out
    assert "OK at threshold" in out and "BROKEN at threshold" in out
    demo = load_demo("03_train_synthetic")
    monkeypatch.setattr(demo, "OUT", tmp_path)
    demo.main()
    assert f"saved {tmp_path / 'demo_checkpoint.adds'}" in capsys.readouterr().out
    assert len(load_checkpoint(tmp_path / "demo_checkpoint.adds").loss_history) == 6
