"""Guards on the public surface: the exported names, the names the demos and
README use, and the functions the benchmark tracer hooks."""

import ast
import importlib.util
import inspect
import re
from dataclasses import replace
from pathlib import Path

import ppdecomp as ppd
from ppdecomp.cli import main

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "BenchmarkRow", "BootstrapConfig", "BootstrapInfeasible",
    "DecompositionResult", "DimensionMismatch",
    "EpsilonEstimate", "InvalidInput", "NoiseSpectrumLaw", "ParseError",
    "ProductSpectrum", "RankSelection", "ScoreTriple", "SimConfig", "SimTruth",
    "Theorem2Report", "Truncation", "TruthOracle", "build_report",
    "continuous_mass", "decompose", "decompose_multiview",
    "decomposition_f_score", "density_sv_scale", "epsilon_pair",
    "estimate_epsilon1", "export_json",
    "gd_coefficient", "generate", "haar_basis", "individual_basis",
    "joint_basis", "joint_rank", "marchenko_pastur_median",
    "misspecify_ranks", "mp_median_sv", "noise_cdf", "noise_density",
    "noise_law", "orthonormalize", "principal_spectrum", "product_spectrum",
    "read_matrix_csv", "render_svg", "report_from_parts",
    "rotate_align", "run_benchmark", "sample_noise_spectrum", "score",
    "select_rank", "singular_value_threshold", "spectral_norm",
    "subspace_distance", "theorem2_bounds", "truncate", "truth_oracle",
    "write_matrix_csv",
]


def test_all_lists_exactly_the_public_names():
    assert sorted(ppd.__all__) == sorted(PUBLIC)
    assert len(set(ppd.__all__)) == len(PUBLIC) == 56
    for name in PUBLIC:
        assert hasattr(ppd, name), name


def test_no_private_name_is_imported_across_modules():
    # A name with a leading underscore belongs to its module; a sibling that
    # needs it should get a public name instead. Parsed rather than grepped,
    # so parenthesized imports over several lines are checked too.
    crossings = []
    for path in sorted((ROOT / "src" / "ppdecomp").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                crossings += [f"{path.name}:{node.lineno} {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert crossings == []


def test_only_the_rng_module_seeds_numpy():
    # Every seed reaches numpy through _rng, which reads it by the one seed
    # rule (as_count, non-negative) and derives its streams; a second call
    # site would be a second rule.
    calls = []
    for path in sorted((ROOT / "src" / "ppdecomp").glob("*.py")):
        if path.name == "_rng.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("default_rng", "SeedSequence"):
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []


def test_demos_and_readme_use_existing_names():
    # Each name must exist, and each ppd.<name>(...) call must bind to its
    # current signature, so that narrowing a signature cannot leave a stale
    # example behind. Calls that unpack * or ** arguments are not checked.
    sources = {p.name: p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))}
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks, "README has no python blocks"
    sources["README.md"] = "\n".join(blocks)
    used = bound = 0
    for origin, text in sources.items():
        for name in re.findall(r"\bppd\.([A-Za-z_]\w*)", text):
            assert hasattr(ppd, name), f"{origin} uses missing ppd.{name}"
            used += 1
        for node in ast.walk(ast.parse(text)):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and getattr(node.func.value, "id", None) == "ppd"):
                continue
            keywords = [k.arg for k in node.keywords]
            if None in keywords or any(isinstance(a, ast.Starred) for a in node.args):
                continue
            try:
                inspect.signature(getattr(ppd, node.func.attr)).bind(
                    *node.args, **dict.fromkeys(keywords))
            except TypeError as exc:
                raise AssertionError(f"{origin}:{node.lineno} ppd.{node.func.attr}: {exc}") from None
            bound += 1
    assert used > 0 and bound > 0


def test_tracer_finds_every_hook(tmp_path):
    # Every hook must be importable and also reached: a hooked name that the
    # pipeline no longer calls would silently read 0 in its per-layer metric.
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    cfg = ppd.SimConfig(n=30, dims=(36, 40), joint_rank=2, individual_ranks=(3, 2),
                        angle_deg=60.0, snr=2.0, seed=1)
    argv = ["decompose", "--bootstrap-reps", "3", "--out", str(tmp_path / "r.json"),
            "--diagnostic", str(tmp_path / "d.svg"),
            "--diagnostic-json", str(tmp_path / "d.json")]
    for k, view in enumerate(ppd.generate(cfg)[0]):
        ppd.write_matrix_csv(tmp_path / f"v{k}.csv", view)
        argv += ["--view", str(tmp_path / f"v{k}.csv")]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        with tracer.operation(0, "simulate"):
            ppd.run_benchmark([replace(cfg, rank_mode="estimated")], reps=1,
                              bootstrap_reps=3)
        with tracer.operation(1, "cli"):
            assert main(argv) == 0
    finally:
        tracer.uninstall()
    missing = {span for _, _, span in tracer_mod.HOOKS} - {span[0] for span in tracer.spans}
    assert not missing, f"hooked names never called: {sorted(missing)}"
