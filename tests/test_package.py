"""Package layout: src/ carries no test-only API (every export and public
method is reached from a CLI verb or from a paper statement that waits for
one, and every property is read in src/), no CLI option that its handler ignores, no import of scipy.optimize or
scipy.integrate at any depth, one transform path (the pair and the solver's
band passes, with no second band form beside them) and one place for each
tolerance, spectral multiplier, growth coefficient, output format and the
band's geometry."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import almost2d
import almost2d.cli

SRC = Path(almost2d.__file__).parent


def test_every_module_level_definition_is_exported_or_used():
    """Each module-level function and class is in almost2d.__all__ or is
    named (called, subclassed, read as an attribute) somewhere in src/."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    orphans = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in almost2d.__all__
        and node.name not in referenced
    ]
    assert orphans == []


def _args_reads(function):
    """(attributes read from ``args``, names of functions called with ``args``
    as an argument) in one function definition."""
    reads, callees = set(), set()
    for node in ast.walk(function):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and any(
                isinstance(arg, ast.Name) and arg.id == "args" for arg in node.args):
            callees.add(node.func.id)
    return reads, callees


def _handler_parsers(parser, command=()):
    """(command words, parser) of each parser under ``parser`` that runs a
    handler: the parsers of its subcommands, recursively, such as ``sweep
    un``, or ``parser`` itself if it has none."""
    subcommands = [
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    ]
    if not subcommands:
        yield " ".join(command), parser
    for action in subcommands:
        for name, child in action.choices.items():
            yield from _handler_parsers(child, command + (name,))


def test_every_cli_option_is_read_by_its_handler():
    """Each option of each command, a sweep family or wholespace table
    included (its ``dest``), is read as ``args.<dest>`` by the command's
    handler or by a cli function it passes ``args`` to, so no option is
    accepted and then ignored."""
    functions = {
        node.name: node for node in ast.parse((SRC / "cli.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    unread = []
    for command, parser in _handler_parsers(almost2d.cli.build_parser()):
        read, todo, seen = set(), [parser.get_default("func").__name__], set()
        while todo:
            name = todo.pop()
            if name in seen or name not in functions:
                continue
            seen.add(name)
            reads, callees = _args_reads(functions[name])
            read |= reads
            todo.extend(callees)
        unread += [
            f"{command} {action.dest}" for action in parser._actions
            if not isinstance(action, argparse._HelpAction) and action.dest not in read
        ]
    assert unread == []


#: Paper statements that no verb prints yet: roots of the reachability walk
#: beside the CLI handlers, so that the operators they call count as reached.
#: ROADMAP item 6 gives both a verb: ``envelopes`` feeds simulate's envelope
#: ratio, and ``two_d_plus_perturbation`` starts each run of the almost-2D
#: trajectory sweep.
PAPER_STATEMENTS = ("envelopes", "two_d_plus_perturbation")
#: Exported types, the values that functions take and return.
EXPORTED_TYPES = ("GridSpec", "SpectralVectorField", "PhysicalVectorField", "CriterionReport", "SharpConstants", "SolverConfig", "DiagnosticsSeries",
                  "QuadratureSpec")


def _reached_from_a_verb() -> set:
    """Names called from a handler of build_parser() or from one of
    PAPER_STATEMENTS, directly or through the functions they call: an AST
    walk of calls in which a call f() or x.f() reaches every definition
    named f in src/, a method included."""
    definitions = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                definitions.setdefault(node.name, []).append(node)
    parser = almost2d.cli.build_parser()
    todo = [p.get_default("func").__name__ for _, p in _handler_parsers(parser)]
    todo += PAPER_STATEMENTS
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in definitions.get(name, ()):
                todo.extend(callee for _, callee in _calls(node))
    return reached


def test_every_export_is_reached_from_a_verb():
    """Each name in almost2d.__all__, modules and EXPORTED_TYPES apart, is
    reached from a verb (``_reached_from_a_verb``)."""
    assert set(PAPER_STATEMENTS + EXPORTED_TYPES) <= set(almost2d.__all__)
    reached = _reached_from_a_verb()
    unreached = [
        name for name in almost2d.__all__
        if name not in reached and name not in EXPORTED_TYPES
        and not inspect.ismodule(getattr(almost2d, name))
    ]
    assert unreached == []


def test_every_public_method_is_reached_from_a_verb():
    """So is each public method of a class in src/.  Properties, cached
    properties and dunders are apart, as no call names them (properties are
    read, ``test_every_property_is_read_in_src``), and so are overrides of
    an inherited method, which their base class calls."""
    reached = _reached_from_a_verb()
    unreached = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"almost2d.{path.stem}")
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            bases = getattr(module, cls.name).__mro__[1:]
            unreached += [
                f"{path.name}:{cls.name}.{node.name}" for node in cls.body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                and not _is_property(node)
                and not any(node.name in vars(base) for base in bases)
                and node.name not in reached
            ]
    assert unreached == []


def _is_property(node) -> bool:
    """Whether a function definition is a property or a cached property."""
    return bool({getattr(d, "id", getattr(d, "attr", None)) for d in node.decorator_list}
                & {"property", "cached_property"})


def test_every_property_is_read_in_src():
    """Each property and cached property of a class in src/, which no call
    names, is read as an attribute by src/ code outside its own body: none
    is kept for tests alone."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = [
        node for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    unread = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and _is_property(node):
                    own = set(map(id, ast.walk(node)))
                    if not any(r.attr == node.name and id(r) not in own for r in reads):
                        unread.append(f"{module}:{cls.name}.{node.name}")
    assert unread == []


_TRANSFORMS = {
    "fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
    "fft2", "ifft2", "rfft2", "irfft2", "hfft2", "ihfft2",
    "fftn", "ifftn", "rfftn", "irfftn", "hfftn", "ihfftn",
}


def _transform_sites(node, module, owner=None):
    """(module, innermost enclosing function or None, call) of each FFT call,
    1-D, 2-D or n-d."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            fn = child.func
            if (fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)) in _TRANSFORMS:
                yield module, owner, child
        name = child.name if isinstance(child, ast.FunctionDef) else owner
        yield from _transform_sites(child, module, name)


def _src_transform_sites():
    return [
        site
        for path in sorted(SRC.glob("*.py"))
        for site in _transform_sites(ast.parse(path.read_text()), path.name)
    ]


def test_nd_transforms_only_in_the_transform_pair():
    """Every FFT call in src/, 1-D included, sits in field.py's transform
    functions: the pair rfft3 / irfft3, and the passes of its band form that a
    solver part runs (band_inverse_planes and irfft_k3 inverse, rfft_x3 and
    band_forward_planes forward)."""
    sites = {(module, owner) for module, owner, _ in _src_transform_sites()}
    assert sites == {
        ("field.py", "rfft3"), ("field.py", "irfft3"), ("field.py", "band_inverse_planes"),
        ("field.py", "irfft_k3"), ("field.py", "rfft_x3"), ("field.py", "band_forward_planes"),
    }


def test_every_transform_runs_on_one_thread():
    """Every FFT call in src/ passes the literal ``workers=1``: pocketfft
    starts no thread, and the solver's parts are the only threads a verb
    runs.  field.py, which holds every call, imports no thread module."""
    sites = _src_transform_sites()
    other = [(module, owner) for module, owner, call in sites
             if [ast.unparse(k.value) for k in call.keywords if k.arg == "workers"] != ["1"]]
    assert sites and other == []
    field_imports = set(_imports(ast.parse((SRC / "field.py").read_text())))
    assert not {name.split(".")[0] for name in field_imports} & {
        "os", "threading", "concurrent", "multiprocessing"}


def test_thread_threshold_and_tolerances_defined_once():
    """THREADED_MIN_N, SLAB_POINTS and every *_TOL tolerance are each
    assigned exactly once in src/: the two thread settings in solver.py, the
    tolerances in field.py."""
    definitions = [
        (target.id, path.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assign)
        for target in node.targets
        if getattr(target, "id", "") in ("THREADED_MIN_N", "SLAB_POINTS")
        or getattr(target, "id", "").endswith("_TOL")
    ]
    names = [name for name, _ in definitions]
    assert len(names) == len(set(names))
    assert {(name, module) for name, module in definitions if not name.endswith("_TOL")} == {
        ("THREADED_MIN_N", "solver.py"), ("SLAB_POINTS", "solver.py")}
    assert {module for name, module in definitions if name.endswith("_TOL")} == {"field.py"}
    assert {"DIVFREE_TOL", "NORM_DIVFREE_TOL", "CONSTRUCTION_DIVFREE_TOL", "MEAN_TOL",
            "INITIAL_MEAN_TOL"} <= set(names)


def _name(node) -> str:
    """The name a Name, Attribute or subscript of either ends in, else ''."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return getattr(node, "id", None) or getattr(node, "attr", "")


def test_leray_projection_written_once():
    """The Leray projection is field.project_coeffs alone, which the field
    layer applies to the half lattice and the solver to its band: k_dot, its
    k.c, is called only in field.py, and its divisor |k_deriv|^2 (1 where 0)
    is made only by grid._k_deriv_sq_safe, for the grid and for the band.  No
    reciprocal 1 / x of a squared wavenumber array is formed in src/."""
    calls = {
        (path.name, owner, name)
        for path in sorted(SRC.glob("*.py"))
        for owner, name in _calls(ast.parse(path.read_text()))
        if name in ("k_dot", "project_coeffs", "_k_deriv_sq_safe")
    }
    assert calls == {
        ("field.py", "divergence_defect", "k_dot"), ("field.py", "project_coeffs", "k_dot"),
        ("field.py", "leray_project", "project_coeffs"), ("solver.py", "project", "project_coeffs"),
        ("grid.py", "k_deriv_sq_safe", "_k_deriv_sq_safe"), ("grid.py", "band", "_k_deriv_sq_safe"),
    }
    reciprocals = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
        and isinstance(node.left, ast.Constant) and node.left.value == 1
        and _name(node.right).endswith(("sq", "sq_safe"))
    ]
    assert reciprocals == []


def test_growth_coefficient_written_once():
    """The numeric literal 6912 of SMALL_DATA_COEFF = 6912 pi^4 appears once in
    src/, in criteria.py, and its multiples 3456, 1728 and 13824 nowhere:
    every growth constant is written from SMALL_DATA_COEFF."""
    literals = [
        (path.name, node.value)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and not isinstance(node.value, (str, bytes))
        and node.value in (6912, 3456, 1728, 13824)
    ]
    assert literals == [("criteria.py", 6912)]


def test_two_thirds_cutoff_written_once():
    """The one floor division by the literal 3 in src/ is GridSpec.kc =
    (n - 1) // 3 in grid.py: the solver's band and the field operators'
    truncation, both ``band(kc)``, read the 2/3 rule's cutoff from it."""
    divisions = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
        and isinstance(node.right, ast.Constant) and node.right.value == 3
    ]
    assert divisions == ["grid.py"]


def test_shell_sum_written_once():
    """One Sobolev path: np.bincount, the shell sum, is called in src/ only in
    ShellSpectrum.__init__, so every Hilbert-space norm, the vertical
    average's plane blocks included, is a weight on a ShellSpectrum."""
    calls = [
        (path.name, top.name, owner)
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        for owner, name in _calls(top, top.name)
        if name == "bincount"
    ]
    assert calls == [("norms.py", "ShellSpectrum", "__init__")]


def test_output_format_written_once():
    """Every CSV and JSON file goes through one formatter of each: the float
    format ``.12e`` is written in src/ only as cli.FLOAT_FMT, and a json
    dump or dumps is called only in cli._json_text."""
    cli_tree = ast.parse((SRC / "cli.py").read_text())
    (float_fmt,) = [
        node.value.lineno for node in cli_tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "FLOAT_FMT"
    ]
    formats = [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and ".12e" in node.value
    ]
    assert formats == [("cli.py", float_fmt)]
    dumps = [
        (path.name, owner)
        for path in sorted(SRC.glob("*.py"))
        for owner, name in _calls(ast.parse(path.read_text()))
        if name in ("dump", "dumps")
    ]
    assert dumps == [("cli.py", "_json_text")]


def _band_statements(tree):
    """Where a module states the band: each ``np.r_`` (its rows), each
    comprehension pairing the rows with themselves (its k1/k2 quadrants) and
    each definition of a second statement of the truncation."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "r_":
            yield "np.r_"
        elif (isinstance(node, (ast.ListComp, ast.GeneratorExp)) and len(node.generators) == 2
              and ast.dump(node.generators[0].iter) == ast.dump(node.generators[1].iter)):
            yield "quadrants"
        elif (isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name in ("dealias_mask", "pad_band", "crop_band", "_Lattice")):
            yield node.name


def test_band_stated_once():
    """The band |k_i| <= K is built in grid.py alone (GridSpec.band): its rows
    and its quadrant list are made nowhere else, and no mask, pad, crop or
    lattice type states the 2/3 truncation a second time."""
    statements = sorted(
        (path.name, statement)
        for path in sorted(SRC.glob("*.py"))
        for statement in _band_statements(ast.parse(path.read_text()))
    )
    assert statements == [("grid.py", "np.r_"), ("grid.py", "quadrants")]


def test_spectral_field_is_grid_and_coeffs():
    """SpectralVectorField is a frozen dataclass of exactly two fields, its
    grid and its half-spectrum coefficients: no cached property of the
    coefficients (such as a mean-zero flag) rides along."""
    tree = ast.parse((SRC / "field.py").read_text())
    (cls,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "SpectralVectorField"
    ]
    declared = [
        node.target.id for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]
    assert declared == ["grid", "half"]
    assert [f.name for f in dataclasses.fields(almost2d.SpectralVectorField)] == ["grid", "half"]
    assert almost2d.SpectralVectorField.__dataclass_params__.frozen


def test_hermitian_machinery_of_the_full_layout_is_gone():
    """The half-spectrum layout is Hermitian by construction, and no full
    coefficient array enters the package: no mirror, symmetrizer or
    Hermitian check is defined or called in src/."""
    names = {
        node.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    gone = {"mirror_conjugate", "hermitian_symmetrize", "_reflect", "require_hermitian",
            "hermitian_defect"}
    assert names & gone == set()
    callers = {
        (path.name, owner)
        for path in sorted(SRC.glob("*.py"))
        for owner, name in _calls(ast.parse(path.read_text()))
        if name == "hermitian_defect"
    }
    assert callers == set()


def _calls(node, owner=None):
    """(innermost enclosing function, called name) of each call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            fn = child.func
            yield owner, fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
        name = child.name if isinstance(child, ast.FunctionDef) else owner
        yield from _calls(child, name)


def test_tolerance_literals_only_in_field():
    """No float literal in [1e-15, 1e-5] is compared against outside field.py:
    each such tolerance is named once, in field.py's block.  Underflow floors
    such as 1e-30 and 1e-300 lie outside the range."""
    literals = [
        f"{path.name}:{node.lineno}={node.value!r}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "field.py"
        for compare in ast.walk(ast.parse(path.read_text()))
        if isinstance(compare, ast.Compare)
        for node in ast.walk(compare)
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        and 1e-15 <= node.value <= 1e-5
    ]
    assert literals == []


def test_solver_has_no_complex_literal():
    """Every spectral multiplier the solver applies (curl, strain, k.c) comes
    from field.py's kernels, so solver.py writes no 1j or 2j."""
    tree = ast.parse((SRC / "solver.py").read_text())
    complex_literals = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, complex)
    ]
    assert complex_literals == []


#: Modules src/ never imports: the Besov refinement is the package's own
#: bounded search, and no quadrature comes from scipy.
_BANNED = ("scipy.optimize", "scipy.integrate")


def _imports(tree):
    """Names of the modules that import statements anywhere in tree import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_module_imports_optimize_or_integrate():
    """Neither at module level nor inside a function."""
    found = [
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _imports(ast.parse(path.read_text()))
        if name.startswith(_BANNED)
    ]
    assert found == []


def _modules_loaded(steps: str) -> str:
    """The banned modules in sys.modules, as printed by a fresh process that
    imports the CLI and then runs ``steps``."""
    script = f"""
import sys
from almost2d.cli import main
{steps}
print(sorted(m for m in {_BANNED!r} if m in sys.modules))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_a_simulate_loads_neither_optimize_nor_integrate(tmp_path):
    """A fresh process that imports the CLI, constructs a field and simulates
    it has imported neither module."""
    field = str(tmp_path / "tg.field")
    assert _modules_loaded(f"""
assert main(["construct", "taylor-green", "--n", "8", "--output", {field!r}]) == 0
assert main(["simulate", "--initial", {field!r}, "--output", {str(tmp_path / "run.csv")!r},
             "--nu", "0.1", "--dt", "0.01", "--t-end", "0.03"]) == 0
""") == "[]"


def test_the_analysis_verbs_load_neither_optimize_nor_integrate(tmp_path):
    """Nor does one that computes a Besov norm (sweep annulus-analog) and runs
    check."""
    field = str(tmp_path / "u.field")
    assert _modules_loaded(f"""
assert main(["sweep", "annulus-analog", "--n", "3", "--n-grid", "16",
             "--output", {str(tmp_path / "sweep.json")!r}]) == 0
assert main(["construct", "random", "--n", "8", "--output", {field!r}]) == 0
assert main(["check", {field!r}, "--nu", "0.1", "--iftimie-c", "2.0",
             "--output", {str(tmp_path / "check.json")!r}]) == 0
""") == "[]"
