"""Experiment config parsing, defaults, validation, and round-tripping."""

from dataclasses import replace

import pytest

from kerrsense.config import (
    EXPERIMENTS,
    GRID_KEYS,
    ConfigError,
    ExperimentConfig,
    default_config,
    parse_config,
    serialize_config,
)


def test_experiment_names():
    assert set(EXPERIMENTS) == {
        "fig1",
        "fig2",
        "fig3",
        "scaling",
        "loss-robustness",
        "custom",
        "wigner",
    }


def test_default_configs_construct():
    for name in EXPERIMENTS:
        if name == "custom":
            continue  # custom has no default kt grid on purpose
        cfg = default_config(name)
        assert cfg.experiment == name
        for key in ("delta", "epsilon", "kerr", "gamma", "kt", "sigma2"):
            assert len(cfg.axis(key)) >= 1


def test_default_custom_requires_kt():
    with pytest.raises(ConfigError):
        default_config("custom")


def test_default_fig2_pins_snapshot_time():
    cfg = default_config("fig2")
    assert cfg.kt == (0.5,)
    assert cfg.kerr == (1.0,)
    assert cfg.gamma == (0.0,)
    assert len(cfg.delta) > 1 and len(cfg.epsilon) > 1


def test_unknown_experiment():
    with pytest.raises(ConfigError):
        default_config("fig9")
    with pytest.raises(ConfigError, match="unknown experiment 'fig9'"):
        parse_config("experiment = fig9\n")
    with pytest.raises(ConfigError, match="unknown experiment 'fig9'"):
        ExperimentConfig("fig9", **{k: (0.5,) for k in GRID_KEYS})


def test_parse_scalar_and_list_and_range():
    cfg = parse_config(
        """
        # comment lines and blanks are skipped
        experiment = custom
        delta = 1.5
        epsilon = 1, 2, 4
        kt = 0:1:5  # inline comment
        """,
    )
    assert cfg.experiment == "custom"
    assert cfg.delta == (1.5,)
    assert cfg.epsilon == (1.0, 2.0, 4.0)
    assert cfg.kt == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_parse_single_point_range():
    cfg = parse_config("kt = 0.5:0.9:1\n", experiment="custom")
    assert cfg.kt == (0.5,)


def test_parse_overlays_defaults():
    cfg = parse_config("epsilon = 3\n", experiment="fig2")
    assert cfg.epsilon == (3.0,)
    # untouched axes keep the preset values
    assert cfg.kt == (0.5,)
    assert cfg.kerr == (1.0,)


def test_parse_experiment_agreement():
    with pytest.raises(ConfigError):
        parse_config("experiment = fig1\n", experiment="fig2")
    with pytest.raises(ConfigError):
        parse_config("delta = 1\n")  # no experiment anywhere


def test_parse_error_diagnostics_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("experiment = custom\nkt = \n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("experiment = custom\nkt = 0.5\ndelta = 1:2\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("kt = 0:1:2.5\n", experiment="custom")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("kt = 0:1:0\n", experiment="custom")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("kt = zero\n", experiment="custom")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("kt = 0.5\nbogus_key = 1\n", experiment="custom")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n", experiment="custom")
    # a repeated key is refused at its repeat, not silently overwritten
    with pytest.raises(ConfigError, match="line 2: key 'kt' repeats line 1"):
        parse_config("kt = 0.1\nkt = 0.2\nexperiment = custom\nexperiment = fig2\n")
    with pytest.raises(ConfigError, match="line 3: key 'experiment' repeats line 1"):
        parse_config("experiment = custom\nkt = 0.1\nexperiment = fig2\n")
    with pytest.raises(ConfigError, match="line 4: key 'output' repeats line 2"):
        parse_config("kt = 0.1\noutput = a.csv\n\noutput = b.csv\n", experiment="custom")


def test_parse_output_key():
    cfg = parse_config("kt = 0.5\noutput = results/run.csv\n", experiment="custom")
    assert cfg.output == "results/run.csv"
    with pytest.raises(ConfigError):
        parse_config("output =\n", experiment="custom")


def test_axis_validation():
    with pytest.raises(ConfigError):
        parse_config("kt = -0.5\n", experiment="custom")  # kt >= 0
    with pytest.raises(ConfigError):
        parse_config("kt = 0.5\ngamma = -0.1\n", experiment="custom")
    with pytest.raises(ConfigError):
        parse_config("kt = 0.5\nsigma2 = -1\n", experiment="custom")
    axes = {k: (0.5,) for k in GRID_KEYS}
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="non-finite value in grid 'kt'"):
            ExperimentConfig("custom", **{**axes, "kt": (bad,)})
    # delta and epsilon may be any finite value, including negatives
    cfg = parse_config("kt = 0.5\ndelta = -5\nepsilon = 0\n", experiment="custom")
    assert cfg.delta == (-5.0,)


def test_unit_kerr_experiments_require_positive_kerr():
    with pytest.raises(ConfigError):
        parse_config("kerr = 0\n", experiment="fig2")
    # custom sweeps may include the Kerr-free case
    cfg = parse_config("kt = 0.5\nkerr = 0\n", experiment="custom")
    assert cfg.kerr == (0.0,)


def test_time_axis_experiments_require_increasing_kt():
    for name in ("scaling", "loss-robustness"):
        for kt in ("0.3, 0.1, 0.2", "0.1, 0.2, 0.2"):
            with pytest.raises(ConfigError, match="kt must be strictly increasing"):
                parse_config(f"kt = {kt}\n", experiment=name)
        assert parse_config("kt = 0.2\n", experiment=name).kt == (0.2,)
    # a sweep that only tabulates its kt axis takes it in any order
    for name in ("fig3", "custom"):
        assert parse_config("kt = 0.3, 0.1, 0.3\n", experiment=name).kt == (0.3, 0.1, 0.3)


def test_axis_accessor_rejects_unknown_key():
    cfg = default_config("fig2")
    with pytest.raises(KeyError):
        cfg.axis("nope")


def test_serialize_round_trip():
    for name in ("fig1", "fig2", "fig3", "scaling", "loss-robustness", "wigner"):
        cfg = default_config(name)
        assert parse_config(serialize_config(cfg)) == cfg
    custom = parse_config(
        "kt = 0:0.6:7\nsigma2 = 0,0.5\noutput = out.csv\n", experiment="custom"
    )
    assert parse_config(serialize_config(custom)) == custom
    for output in ("run 1.csv", "a=b.csv", "dir/run.csv", "\u00fc.csv"):
        cfg = replace(default_config("fig2"), output=output)
        assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize(
    "output", ["run#1.csv", " run.csv", "run.csv\t", "a\nb.csv", "a\rb.csv", "a\u2028b.csv", ""]
)
def test_output_a_config_file_cannot_hold_is_rejected(output):
    # '#' starts a comment and values are stripped line by line, so these
    # would not parse back to themselves
    with pytest.raises(ConfigError, match="output"):
        replace(default_config("fig2"), output=output)


# per experiment: the axes it never reads, and those it reads one value of
AXIS_READS = {
    "fig1": ({"gamma", "sigma2"}, set()),
    "fig2": (set(), {"kerr", "gamma", "kt", "sigma2"}),
    "fig3": (set(), {"delta", "epsilon", "kerr", "sigma2"}),
    "scaling": ({"gamma", "sigma2"}, {"kerr"}),
    "loss-robustness": (set(), {"delta", "epsilon", "kerr", "sigma2"}),
    "custom": (set(), set()),
    "wigner": ({"sigma2"}, {"delta", "epsilon", "kerr", "gamma", "kt"}),
}


@pytest.mark.parametrize("experiment", sorted(AXIS_READS))
def test_config_values_an_experiment_would_drop_are_rejected(experiment):
    # an unread axis may only restate its preset, an axis read at its first
    # value holds one value, and every other axis takes a list
    unread, first_only = AXIS_READS[experiment]
    assert set(AXIS_READS) == set(EXPERIMENTS)

    def parse(key, value):
        kt = "kt = 0.5\n" if experiment == "custom" and key != "kt" else ""
        return parse_config(f"{key} = {value}\n{kt}", experiment=experiment)

    for key in GRID_KEYS:
        if key in unread:
            with pytest.raises(ConfigError, match=f"does not read '{key}'"):
                parse(key, "0.25")
            preset = default_config(experiment).axis(key)
            assert parse(key, ", ".join(map(repr, preset))).axis(key) == preset
        elif key in first_only:
            with pytest.raises(ConfigError, match=f"reads one '{key}' value, got 2"):
                parse(key, "0.25, 0.5")
            assert parse(key, "0.25").axis(key) == (0.25,)
        else:
            assert parse(key, "0.25, 0.5").axis(key) == (0.25, 0.5)
