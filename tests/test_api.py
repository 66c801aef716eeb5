"""Every public call fails with a walktest error.

Each function in the ``__all__`` of the library modules, and each named
constructor (public classmethod) of a class there, has a row of small valid
arguments below.  The test puts each bad value in place of one argument at a
time, and for a list argument also a one-element list of each bad value;
only a WalktestError may escape.  An integer argument named in its row's
``ints`` must refuse every bad value but None and -1, and an integer list
every one but [] and [-1], since those may be valid or fail range checks
only; so no ``int()`` reads 1.5 or True as 1.

Each public method (and ``__getitem__``) of such a class has a row too, whose
``self`` is a small instance; ``self`` is never probed.

Arguments that take library objects, numpy Generators or file paths are left
out.  No row names ``seed``: ``trial_rng`` reads a bool seed as numpy does,
on a cached path whose speed the walk engines rest on, so seeds are checked
only where they reach a SeedSequence (``rng._seed_sequence``).
"""

import inspect
import math
from dataclasses import dataclass

import numpy as np
import pytest

from walktest import designs, experiments, graphs, grouptest, mixing, rng, walks
from walktest.calibration import CALIBRATED, ScaleConstants
from walktest.designs import MeasurementMatrix
from walktest.errors import WalktestError
from walktest.graphs import Graph
from walktest.grouptest import NoiseModel, OutcomeVector
from walktest.walks import StartRule, Walk

MODULES = (graphs, mixing, walks, designs, grouptest, experiments, rng)
BAD = ("x", 1.5, True, None, [], -1, math.nan, {"a": 1})
OBJECTS = (Graph, MeasurementMatrix, OutcomeVector, StartRule, NoiseModel,
           ScaleConstants, Walk, np.random.Generator)


class File(str):
    """A file name, resolved in the test's file directory; never probed."""


@dataclass
class Row:
    fn: object
    args: dict
    ints: tuple = ()
    id: str = ""


G = graphs.complete_graph(5)
M = designs.vertex_walk_design(G, (), 12, 4, 0)
Y = grouptest.simulate_tests(M, [1])
GEN = np.random.default_rng(0)
WALK = walks.random_walk(G, 0, 3, np.random.default_rng(0))
NOISELESS = NoiseModel.noiseless()
K5 = {"family": "complete", "n": 5}
EST = dict(g=G, item=0, kind="vertex", steps=3, trials=10, seed=1, start=0,
           lazy=False)
EST_INTS = "item steps trials start"
PARAMS = designs.design_parameters(10, 2, 3, 1.0, 2)
SWEEP = experiments.success_sweep(K5, 1, 1, 0.0, [4, 8], 30, 1, t_override=3)
MIXING = experiments.mixing_scaling("random-regular", [6, 8], 1,
                                    degree_rule="fixed:3")
REPORT = experiments.verification_suite(G, 1, 30, 1)
TOMO = experiments.tomography_demo(G, 0, [1], 0.05, 1, t=3, m=30,
                                   confidence=0.9)


def row(fn, ints="", id="", **args):
    return Row(fn, args, tuple(ints.split()), id)


ROWS = [
    # graphs
    row(Graph.from_edges, "n", n=3, edges=[[0, 1], [1, 2]]),
    row(graphs.complete_graph, "n", n=5),
    row(graphs.cycle_graph, "n", n=5),
    row(graphs.erdos_renyi_graph, "n", n=6, p=0.5, seed=1),
    row(graphs.random_regular_graph, "n degree", n=6, degree=3, seed=1),
    row(graphs.degree_uniformity, g=G),
    row(graphs.stationary_distribution, g=G, lazy=False),
    row(graphs.conductance_exact, g=G),
    row(graphs.second_eigenvalue, g=G),
    row(graphs.read_graph, path=File("graph.json")),
    row(graphs.write_graph, g=G, path=File("out.json"), format="json"),
    row(graphs.graph_to_json, g=G),
    row(graphs.graph_from_json, doc={"n": 3, "edges": [[0, 1]]}),
    row(Graph.edge_id, "u v", self=G, u=0, v=1),
    row(graphs.UniformityReport.is_uniform_for, "min_degree",
        self=graphs.degree_uniformity(G), min_degree=4, ratio=1.0),
    row(graphs.Distribution.__getitem__, "i",
        self=graphs.stationary_distribution(G), i=0),
    # mixing
    row(mixing.transition_matrix, g=G, lazy=False),
    row(mixing.default_delta, g=G),
    row(mixing.mixing_time, g=G, delta=0.01, lazy=False),
    row(mixing.conductance_lower_bound, g=G),
    row(mixing.conductance_mixing_bound, g=G, phi=0.5),
    # walks
    row(StartRule.uniform),
    row(StartRule.round_robin, "designated", designated=[0, 1]),
    row(StartRule.designated_uniform, "designated", designated=[0, 1]),
    row(StartRule.fixed, "vertex", vertex=0),
    row(StartRule.validate, self=StartRule.uniform(), g=G),
    row(walks.random_walk, "start steps index", g=G, start=0, steps=3, rng=GEN,
        lazy=False, index=0),
    row(walks.walk_to_sink, "start sink cap index", g=G, start=0, sink=1,
        rng=GEN, cap=100, lazy=False, index=0),
    row(walks.validate_walk, g=G, walk=WALK, lazy=False),
    row(walks.hit_probability, EST_INTS, **EST),
    row(walks.hit_avoid_probability, EST_INTS + " avoid", avoid=[1], **EST),
    row(walks.hit_before_sink_probability,
        "item avoid sink trials start cap", g=G, item=0, avoid=[1], sink=2,
        kind="vertex", trials=10, seed=1, start=3, cap=100, lazy=False),
    row(walks.visit_count_tail_check, "v steps k trials start", g=G, v=0,
        steps=3, k=1, trials=10, seed=1, start=0, lazy=False),
    row(walks.early_visit_check, "v k trials designated", g=G, v=0, k=2,
        trials=10, seed=1, designated=[1], lazy=False),
    row(walks.influence_check, "i j trials t_mix min_count", g=G, i=0, j=3,
        trials=40, seed=1, t_mix=1, lazy=False, min_count=1),
    # designs
    row(designs.design_parameters, "n d D T", n=10, d=2, D=3, c=1.0, T=2,
        eta=0.0, constants=CALIBRATED),
    row(designs.DesignParams.as_dict, self=PARAMS),
    row(designs.DesignParams.walk_length, "design_id", self=PARAMS,
        design_id=1),
    row(designs.DesignParams.rows, "design_id", self=PARAMS, design_id=1),
    row(MeasurementMatrix.dense, self=M),
    row(MeasurementMatrix.prefix, "m", self=M, m=4),
    row(designs.vertex_walk_design, "designated m t", g=G, designated=[0], m=6,
        t=3, seed=1, lazy=False),
    row(designs.edge_walk_design, "m t start", g=G, m=6, t=3, seed=1, start=0,
        lazy=False),
    row(designs.vertex_sink_design, "designated sink m cap", g=G,
        designated=[0], sink=1, m=4, seed=1, cap=100, lazy=False),
    row(designs.edge_sink_design, "sink m cap start", g=G, sink=1, m=4, seed=1,
        cap=100, start=0, lazy=False),
    row(designs.build_design, "design_id m t designated", id="walk", g=G,
        design_id=1, m=4, seed=1, t=3, designated=[0], sink=None, cap=None,
        start=None, lazy=False),
    row(designs.build_design, "design_id m sink cap start", id="sink", g=G,
        design_id=4, m=4, seed=1, t=None, designated=[], sink=1, cap=100,
        start=0, lazy=False),
    row(designs.verify_rows, g=G, M=M),
    row(designs.matrix_to_json, M=M),
    row(designs.matrix_from_json, obj=designs.matrix_to_json(M)),
    row(designs.write_matrix, path=File("out.json"), M=M),
    row(designs.read_matrix, path=File("matrix.json")),
    # grouptest
    row(NoiseModel.noiseless),
    row(NoiseModel.flip, q=0.1),
    row(NoiseModel.dilution, q=0.1),
    row(NoiseModel.adversarial, "flips", flips=[0]),
    row(OutcomeVector.to01, self=Y),
    row(grouptest.simulate_tests, "defectives", M=M, defectives=[1],
        noise=NOISELESS, rng=GEN),
    row(grouptest.is_disjunct, "d e exclude_columns", M=M, d=1, e=0,
        budget=1e8, exclude_columns=[0], shorter=None),
    row(grouptest.disjunct_margin, "d exclude_columns", M=M, d=1, budget=1e6,
        exclude_columns=[0]),
    row(grouptest.negative_counts, M=M, y=Y),
    row(grouptest.decode_cover, "d", M=M, y=Y, d=1),
    row(grouptest.decode_threshold, "tau d", M=M, y=Y, tau=0, d=1),
    row(grouptest.adversarial_flip_check, "planted tau limit", M=M,
        planted=[1], tau=0, patterns=[[0]], limit=100),
    row(grouptest.binomial_quantile, "m", m=10, q=0.1, confidence=0.9),
    row(grouptest.eta_for_flip_noise, "m n d", q=0.05, m=200, confidence=0.9,
        n=50, d=2, constants=CALIBRATED),
    row(grouptest.flip_noise_plan, "m_base n d", q=0.05, m_base=200,
        confidence=0.9, n=50, d=2, constants=CALIBRATED),
    row(grouptest.outcomes_to_json, y=Y),
    row(grouptest.outcomes_from_json, obj=grouptest.outcomes_to_json(Y)),
    row(grouptest.write_outcomes, path=File("out.json"), y=Y),
    row(grouptest.read_outcomes, path=File("outcomes.json")),
    # experiments
    row(experiments.check_graph_config, cfg=K5),
    row(experiments.graph_from_config,
        cfg={"family": "erdos-renyi", "n": 6, "p": 0.6}, seed=1),
    row(experiments.measured_design_parameters, "d t_mix", g=G, d=1, eta=0.0,
        constants=CALIBRATED, t_mix=2),
    row(experiments.success_sweep, "design_id d m_grid trials t_override",
        graph_config=K5, design_id=1, d=1, eta=0.0, m_grid=[4, 8], trials=30,
        seed=1, noise=NOISELESS, success="auto", budget=1e8,
        constants=CALIBRATED, t_override=3, sink=None, designated=[]),
    row(experiments.mixing_scaling, "n_grid", family="random-regular",
        n_grid=[6, 8], seed=1, degree_rule="fixed:3", lazy=False),
    row(experiments.fixed_input_experiment, "design_id d m_grid trials",
        graph_config=K5, design_id=1, d=1, m_grid=[4, 8], trials=30, seed=1,
        budget=1e9),
    row(experiments.verification_suite, "d trials", g=G, d=1, trials=30,
        seed=1),
    row(experiments.tomography_demo, "source congested t m", g=G, source=0,
        congested=[1], q=0.05, seed=1, t=3, m=30, confidence=0.9,
        constants=CALIBRATED),
    row(experiments.run_config, kind="verify",
        cfg={"graph": K5, "d": 1, "trials": 30}, seed=1, read=graphs.read_graph),
    row(experiments.SweepResult.threshold, self=SWEEP, level=0.95),
    row(experiments.SweepResult.csv_rows, self=SWEEP),
    row(experiments.MixingScalingResult.band, self=MIXING),
    row(experiments.MixingScalingResult.bound_respected, self=MIXING),
    row(experiments.MixingScalingResult.csv_rows, self=MIXING),
    row(experiments.VerificationReport.csv_rows, self=REPORT),
    row(experiments.TomographyReport.csv_rows, self=TOMO),
    # rng
    row(rng.trial_rng, seed=1, index=2),
    row(rng.master_rng, seed=1),
]


def _name(fn) -> str:
    return fn.__qualname__ if "." in fn.__qualname__ else \
        f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__qualname__}"


def _public_calls():
    """Every function in the modules' ``__all__``, and every public
    classmethod, public method and ``__getitem__`` of a class there that the
    module defines."""
    for mod in MODULES:
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__getitem__":
                        continue
                    if isinstance(member, classmethod) or inspect.isfunction(member):
                        yield getattr(obj, attr)


def _probes(value):
    """The bad values put in place of an argument whose valid value is
    ``value``."""
    return BAD + tuple([bad] for bad in BAD) if isinstance(value, list) else BAD


def _must_refuse(value, bad) -> bool:
    """Whether an integer argument whose valid value is ``value`` must
    refuse ``bad`` whatever its range: None may be a default, and -1 is for
    the function's range checks."""
    if isinstance(value, list):
        return bad not in ([], [-1])
    return bad is not None and not (type(bad) is int and bad == -1)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("api")
    graphs.write_graph(G, str(d / "graph.json"))
    designs.write_matrix(d / "matrix.json", M)
    grouptest.write_outcomes(d / "outcomes.json", Y)
    return d


def test_every_public_call_has_a_row():
    covered = {_name(r.fn) for r in ROWS}
    missing = sorted({_name(fn) for fn in _public_calls()} - covered)
    assert not missing, f"public calls without a row: {missing}"


@pytest.mark.parametrize("r", ROWS, ids=[_name(r.fn) + (f"[{r.id}]" if r.id else "")
                                         for r in ROWS])
def test_bad_arguments_raise_walktest_errors(r, files):
    params = set(inspect.signature(r.fn).parameters)
    assert set(r.args) == params, "a row names every parameter"
    assert set(r.ints) <= params
    args = {k: str(files / v) if isinstance(v, File) else v
            for k, v in r.args.items()}
    r.fn(**args)  # the row itself is valid
    problems = []
    for key, value in r.args.items():
        if key == "self" or isinstance(value, (File, *OBJECTS)):
            continue
        for bad in _probes(value):
            try:
                r.fn(**dict(args, **{key: bad}))
            except WalktestError:
                continue
            except Exception as exc:  # noqa: BLE001 - the escape is the finding
                problems.append(f"{key}={bad!r}: {type(exc).__name__}: {exc}")
                continue
            if key in r.ints and _must_refuse(value, bad):
                problems.append(f"{key}={bad!r}: accepted")
    assert not problems, "\n".join(problems)
