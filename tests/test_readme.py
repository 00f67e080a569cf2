"""The README's config file and library example run against the package,
so an API change that the README does not follow fails here."""
import json
import re
from pathlib import Path

from wearbench import config, synth
from wearbench.session_io import ValidationPolicy

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def readme_block(heading: str, language: str) -> str:
    """The first fenced ``language`` block after the ``heading`` line."""
    after = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", after, re.S).group(1)


def test_config_file_example_is_a_valid_config():
    data = json.loads(readme_block("### Config file", "json"))
    cfg = config.config_from_dict(data)
    assert cfg.seed == data["seed"]
    assert isinstance(cfg.validation, ValidationPolicy)
    assert cfg.synth == synth.CohortSpec(**data["synth"])


def test_library_use_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(readme_block("## Library use", "python"), namespace)
    assert len(namespace["features"]) == 59
    assert namespace["manifest"] == Path("run/data/manifest.csv")
    assert namespace["report"]["model"]["kind"] == "knn"
    assert namespace["report"]["selector"] == "acc"
