"""Config fuzzing: any JSON document parses or raises ConfigError, and every
subcommand ends in exit 0, 1 or 2 without raising.

Documents are a mix of arbitrary JSON and near-valid configs (valid shapes
with extreme numbers, typo fields and values swapped for arbitrary JSON).
Integers are capped, and so are the sizes that cost time or memory
(`sampler.count`, `stop.max_iter`, the `bench`/`gen` `count` and `dim`), so
every example stays small and fast.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fpkit as fp
from fpkit.cli import EXIT_CONFIG, EXIT_OK, EXIT_SCHEME_FAILURE, main
from fpkit.errors import ConfigError


def mostly(common, rare):
    """``common`` nine draws in ten, ``rare`` otherwise."""
    return st.sampled_from(range(10)).flatmap(lambda k: rare if k == 9 else common)


ints = st.integers(-1000, 1000)
extreme = st.sampled_from([0.0, -0.0, 1e-320, 1e200, -1e300, 1.7e308, float("inf"), float("nan")])
odd = extreme | ints
numbers = mostly(st.floats(-3.0, 3.0) | st.integers(-3, 3), odd)
names = st.text(max_size=6)

arbitrary = st.recursive(
    st.none() | st.booleans() | ints | st.floats() | names,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(names, inner, max_size=3),
    max_leaves=8,
)


def vectors(d):
    return st.lists(numbers, min_size=d, max_size=d)


def leaf_mapping(d):
    kinds = [
        st.fixed_dictionaries({"kind": st.just("affine"), "offset": vectors(d),
                               "matrix": st.lists(vectors(d), min_size=d, max_size=d)}),
        st.fixed_dictionaries({"kind": st.just("identity"), "dim": st.just(d)}),
        st.fixed_dictionaries({"kind": st.just("box_projection"),
                               "lo": mostly(st.lists(st.floats(-3.0, 0.0), min_size=d, max_size=d), vectors(d)),
                               "hi": mostly(st.lists(st.floats(0.0, 3.0), min_size=d, max_size=d), vectors(d))}),
    ]
    if d == 2:
        kinds.append(st.fixed_dictionaries({"kind": st.just("rotation"), "theta": numbers}))
    return st.one_of(kinds)


def mappings(d):
    return st.recursive(
        leaf_mapping(d),
        lambda inner: st.fixed_dictionaries(
            {"kind": st.just("lincomb"), "alpha": numbers, "beta": numbers, "base": inner}
        ) | st.fixed_dictionaries(
            {"kind": st.just("composition"), "stages": st.lists(inner, min_size=1, max_size=3)}
        ),
        max_leaves=4,
    )


dims = st.integers(1, 3)
some_vector = dims.flatmap(vectors)
stops = st.fixed_dictionaries(
    {"max_iter": mostly(st.integers(1, 50), st.integers(-1, 0))},
    optional={"eps_abs": mostly(st.floats(1e-12, 1e-3), odd),
              "eps_rel": mostly(st.floats(0.0, 1e-3), odd),
              "norm_cap": mostly(st.floats(1.0, 1e12), odd)},
)
seeds = mostly(st.integers(0, 1000), ints)
samplers = st.fixed_dictionaries(
    {"count": mostly(st.integers(1, 200), st.integers(-1, 0))},
    optional={"seed": seeds, "box_radius": mostly(st.floats(0.1, 1e3), odd),
              "near_pair_fraction": mostly(st.floats(0.0, 1.0), odd)},
)
schemes = mostly(st.sampled_from([s.value for s in fp.Scheme]), st.just("pickard"))
norms = mostly(st.sampled_from(["l1", "l2", "linf"]), st.just("l3"))
bs = mostly(st.floats(0.01, 5.0), odd)
lambdas = mostly(st.floats(0.01, 0.99), odd)
generator = mostly(st.integers(1, 8), st.integers(-1, fp.DIM_CAP)).flatmap(
    lambda d: st.fixed_dictionaries(
        {"dim": st.just(d), "count": mostly(st.integers(0, 3), st.just(-1)),
         "singular_values": mostly(st.lists(st.floats(0.0, 3.0), min_size=max(d, 0), max_size=max(d, 0)),
                                   vectors(max(d, 0)) | some_vector)},
        optional={"seed": seeds},
    )
)


def experiment_doc(d):
    return st.fixed_dictionaries(
        {"mapping": mappings(d), "scheme": schemes, "stop": stops, "b": bs, "lambda": lambdas,
         "kind": mostly(st.sampled_from(["enriched", "modified"]), st.just("both")),
         "x0": mostly(vectors(d), some_vector)},
        optional={
            "norm": norms, "sampler": samplers, "slack": mostly(st.floats(0.0, 1e-6), odd),
            "verify": st.booleans(), "store_iterates": st.booleans(), "seed": seeds,
        },
    )


def bench_doc(d):
    iterative = mostly(st.sampled_from(["picard", "krasnoselskij", "solve_modified"]), schemes)
    entry = st.fixed_dictionaries({"scheme": iterative}, optional={"lambda": lambdas, "b": bs})
    return st.fixed_dictionaries(
        {"family": st.lists(mappings(d), max_size=3) | generator,
         "schemes": mostly(st.lists(entry, min_size=1, max_size=3), st.just([])), "stop": stops},
        optional={"norm": norms, "seed": seeds, "x0": mostly(vectors(d), some_vector)},
    )


@st.composite
def mutated(draw, docs):
    """A near-valid document, maybe with a typo field or one value swapped for arbitrary JSON."""
    doc = draw(docs)
    action = draw(st.sampled_from(["keep", "typo", "swap"]))
    if action == "typo":
        doc[draw(names)] = draw(arbitrary)
    elif action == "swap" and doc:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(arbitrary)
    return doc


documents = st.one_of(
    arbitrary, mutated(dims.flatmap(experiment_doc)), mutated(dims.flatmap(bench_doc)),
    mutated(generator),
)
FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(doc=documents)
def test_parse_config_returns_or_raises_config_error(doc):
    try:
        cfg = fp.parse_config(doc)
    except ConfigError:
        return
    assert isinstance(cfg, fp.ExperimentConfig)


@FUZZ
@given(command=st.sampled_from(["verify", "solve", "iterate", "min-b", "bench", "gen"]),
       doc=documents)
def test_cli_exits_0_1_or_2_on_any_document(tmp_path_factory, command, doc):
    root = tmp_path_factory.getbasetemp() / "fuzz"
    root.mkdir(exist_ok=True)
    cfg = root / "config.json"
    cfg.write_text(json.dumps(doc))
    code = main([command, "--config", str(cfg), "--out", str(root / "out")])
    assert code in (EXIT_OK, EXIT_SCHEME_FAILURE, EXIT_CONFIG)
