"""The public surface: every name that ``stokesgeo/__init__.py`` exports
is used by the package outside its own module, by the benchmark, or backs
a claim named in ``BACKED``."""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stokesgeo"

# exported names that nothing in the package or the benchmark refers to,
# with the acceptance criterion or README claim each backs
BACKED = {
    "teichmuller_defect": "acceptance criterion 7, the defect identity",
    "PsiPolygon": "acceptance criterion 7, the defect identity",
    "is_very_flat": "README: very flat potentials project to a chopped "
                    "strip whose visible pairs count the short geodesics",
    "VeryFlatResult": "README: the very-flat projection's result",
    "ExactTieError": "README: chopped-strip visibility in exact rational "
                     "arithmetic, which refuses collinear nodes",
    "format_poly_text": "README: the polynomial text form of --poly, which "
                        "a polynomial prints as",
    "AccumulationRay": "README: one accumulation ray per short geodesic "
                       "(the rays example)",
    "EigenvalueEstimate": "README: eigenvalue asymptotics along each ray "
                          "(the eigenvalues example)",
    "ChordDiagram": "README: weighted chord diagrams (the chords example)",
    "Period": "README: connection angles from branch-tracked periods",
    "StokesEdge": "README: Stokes graphs (the stokes-graph example)",
}


def _exports():
    """{exported name: the module it is imported from}."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name: node.module
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _names(path):
    """The identifiers of the code in ``path`` and its string literals
    that are identifiers (``bench/tracing.py`` names its targets so);
    comments and docstring prose do not count."""
    out = set()
    lines = io.StringIO(path.read_text()).readline
    for tok in tokenize.generate_tokens(lines):
        if tok.type == tokenize.NAME:
            out.add(tok.string)
        elif tok.type == tokenize.STRING:
            try:
                value = ast.literal_eval(tok.string)
            except ValueError:
                continue
            if isinstance(value, str) and value.isidentifier():
                out.add(value)
    return out


def test_every_export_is_used_or_backs_a_claim():
    users = [(path.stem, _names(path)) for path in PACKAGE.glob("*.py")
             if path.name != "__init__.py"]
    bench = set().union(*map(_names, (ROOT / "bench").glob("*.py")))
    unused = {name for name, module in _exports().items()
              if name not in bench and not any(
                  name in names for stem, names in users if stem != module)}
    # a name left of the allow-list is exported for no caller; one right
    # of it is used now, or no longer exported, and leaves the list
    assert unused == set(BACKED)
