"""Problem configuration: INI-style files, echo, and the registry of
shipped example problems.

The grammar is documented in the README; ``SECTIONS`` lists its
sections.  Unknown sections or keys are errors.  The parser resolves the
values; the mesh builders and the parameter classes that use them check
their ranges (sizes, the clamped side, the target inside the domain).
"""

import configparser
import io
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ConfigError, InvalidParameterError
from .fields import INITIAL_RHO2, INITIAL_RHO3
from .functional import RegularizationParams
from .materials import Material, PhaseSet
from .mesh import build_hexagon_mesh, build_rect_mesh
from .optimizer import OptimizerConfig

# (section, required) in the order of the grammar and of the echo
SECTIONS = (("domain", True), ("mesh", True), ("target", True),
            ("displacements", True), ("phases", True),
            ("phases.passive", True), ("phases.responsive", True),
            ("regularization", True), ("initial", False),
            ("optimizer", False), ("output", False))


@dataclass(frozen=True)
class ProblemSpec:
    """Fully resolved problem description."""

    domain_type: str                      # "rect" | "hexagon"
    h: float
    targets: tuple                        # ((ux, uy), ...) one per load case
    phases: PhaseSet
    params: RegularizationParams
    scheme: str                           # "staggered" | "monolithic"
    initial_rho2: float
    initial_rho3: float
    initial_stimulus: float
    optimizer: OptimizerConfig
    output_dir: str
    export_every: int
    # {section: {key: value}} of every value the parse resolved, defaults
    # included, in the order of the grammar; what echo_config writes (a
    # dataclasses.replace copy keeps the record of the spec it copies)
    resolved: dict = field(compare=False, repr=False)
    lx: float = None
    ly: float = None
    dirichlet_side: str = "left"
    edge: float = None
    clamp_orientation: str = "odd"
    target_box: tuple = None              # rect: (x0, y0, x1, y1)
    target_edge: float = None             # hexagon

    @property
    def n_cases(self):
        return len(self.targets)

    def target_array(self):
        return np.array(self.targets, dtype=float)

    def build_mesh(self):
        if self.domain_type == "rect":
            return build_rect_mesh(self.lx, self.ly, self.h,
                                   self.dirichlet_side, self.target_box)
        return build_hexagon_mesh(self.edge, self.h, self.target_edge,
                                  self.clamp_orientation)


class _Section:
    """Tracks key consumption so unknown keys fail fast with their path, and
    records every value it resolves, defaults included."""

    def __init__(self, name, items):
        self.name = name
        self.items = dict(items)
        self.resolved = {}

    def get(self, key, cast=str, default=None):
        """``cast`` of the value of ``key``; required unless a default is given."""
        if key in self.items:
            raw = self.items[key]
            try:
                value = cast(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"key {self.name}.{key}: cannot parse {raw!r} ({exc})") from exc
        elif default is None:
            raise ConfigError(f"missing required key {self.name}.{key}")
        else:
            value = default
        self.resolved[key] = value
        return value

    def leftovers(self):
        return [f"{self.name}.{k}" for k in self.items if k not in self.resolved]


def _float(raw):
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError("must be finite")
    return v


def _vector2(raw):
    parts = raw.replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError("expected two components")
    return (_float(parts[0]), _float(parts[1]))


def _validated(section, cls, **kwargs):
    """``cls(**kwargs)``; an InvalidParameterError, whose message starts
    with the field name, becomes a ConfigError naming ``section.field``."""
    try:
        return cls(**kwargs)
    except InvalidParameterError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


def parse_config(path=None, text=None, overrides=()):
    """Parse and validate a problem configuration.

    ``overrides`` are "section.key=value" strings applied before
    validation (the CLI's repeatable --override flag).
    """
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str
    try:
        if text is None:
            with open(path) as fh:
                cp.read_file(fh)
        else:
            cp.read_string(text)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        # a configparser message may span lines; the CLI prints one
        message = " ".join(str(exc).splitlines())
        raise ConfigError(f"cannot read configuration: {message}") from exc

    data = {s: dict(cp.items(s)) for s in cp.sections()}
    for ov in overrides:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {ov!r}")
        key_path, value = ov.split("=", 1)
        section, key = key_path.rsplit(".", 1)
        data.setdefault(section, {})[key] = value

    unknown = sorted(set(data) - {name for name, _ in SECTIONS})
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(unknown)}")
    for name, required in SECTIONS:
        if required and name not in data:
            raise ConfigError(f"missing required section [{name}]")
    secs = {name: _Section(name, data.get(name, {})) for name, _ in SECTIONS}

    dom = secs["domain"]
    domain_type = dom.get("type")
    kwargs = {}
    if domain_type == "rect":
        kwargs["lx"] = dom.get("lx", _float)
        kwargs["ly"] = dom.get("ly", _float)
        kwargs["dirichlet_side"] = dom.get("dirichlet_side", default="left")
    elif domain_type == "hexagon":
        kwargs["edge"] = dom.get("edge", _float)
        kwargs["clamp_orientation"] = dom.get("clamp_orientation",
                                              default="odd")
    else:
        raise ConfigError(f"domain.type: must be rect or hexagon, got {domain_type!r}")

    h = secs["mesh"].get("h", _float)

    tgt = secs["target"]
    if domain_type == "rect":
        kwargs["target_box"] = tuple(tgt.get(k, _float)
                                     for k in ("x0", "y0", "x1", "y1"))
    else:
        kwargs["target_edge"] = tgt.get("edge", _float)

    disp = secs["displacements"]
    count = disp.get("count", int)
    if count < 1:
        raise ConfigError("displacements.count must be >= 1")
    targets = tuple(disp.get(f"u{j + 1}", _vector2) for j in range(count))

    def material(name, responsive=False):
        s = secs[name]
        young = s.get("young", _float)
        poisson = s.get("poisson", _float)
        beta = s.get("beta", _float, default=1.0) if responsive else 0.0
        return _validated(name, Material, young=young, poisson=poisson,
                          beta=beta)

    phase_set = _validated(
        "phases", PhaseSet, passive=material("phases.passive"),
        responsive=material("phases.responsive", responsive=True),
        eta=secs["phases"].get("eta", _float, default=PhaseSet.eta))

    reg = secs["regularization"]
    params = _validated(
        "regularization", RegularizationParams,
        epsilon=reg.get("epsilon", _float),
        alpha=reg.get("alpha", _float),
        nu2=reg.get("nu2", _float),
        nu3=reg.get("nu3", _float),
    )

    init = secs["initial"]
    initial = dict(
        initial_rho2=init.get("rho2", _float, default=INITIAL_RHO2),
        initial_rho3=init.get("rho3", _float, default=INITIAL_RHO3),
        initial_stimulus=init.get("stimulus", _float, default=0.0),
    )
    if not (0 <= initial["initial_rho2"] <= 1 and 0 <= initial["initial_rho3"] <= 1):
        raise ConfigError("initial.rho2/rho3 must lie in [0, 1]")
    if abs(initial["initial_stimulus"]) > 1:
        raise ConfigError("initial.stimulus must lie in [-1, 1]")

    opt = secs["optimizer"]
    scheme = opt.get("scheme", default="staggered")
    if scheme not in ("staggered", "monolithic"):
        raise ConfigError(f"optimizer.scheme: must be staggered or monolithic, "
                          f"got {scheme!r}")
    max_iters = opt.get("max_outer_iters", int,
                        default=OptimizerConfig.max_outer_iters)
    optimizer = _validated("optimizer", OptimizerConfig,
                           max_outer_iters=max_iters)

    out = secs["output"]
    output_dir = out.get("directory", default="out")
    export_every = out.get("export_every", int, default=50)
    if export_every < 1:
        raise ConfigError("output.export_every must be >= 1")

    leftovers = [k for s in secs.values() for k in s.leftovers()]
    if leftovers:
        raise ConfigError(f"unknown key(s): {', '.join(sorted(leftovers))}")

    return ProblemSpec(
        domain_type=domain_type, h=h, targets=targets, phases=phase_set,
        params=params, scheme=scheme, **kwargs, **initial,
        optimizer=optimizer, output_dir=output_dir,
        export_every=export_every,
        resolved={name: s.resolved for name, s in secs.items()},
    )


def echo_config(spec):
    """Serialize a spec back to INI text, every value the parse resolved;
    parse(echo(spec)) == spec."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    for name, values in spec.resolved.items():
        cp[name] = {k: " ".join(map(repr, v)) if isinstance(v, tuple) else str(v)
                    for k, v in values.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def shipped_config_names():
    """Names of the bundled example problems."""
    root = resources.files("morphopt") / "configs"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def shipped_config_text(name):
    root = resources.files("morphopt") / "configs"
    path = root / f"{name}.cfg"
    if not path.is_file():
        raise ConfigError(f"no shipped config named {name!r}; "
                          f"available: {', '.join(shipped_config_names())}")
    return path.read_text()


def load_shipped_config(name, overrides=()):
    return parse_config(text=shipped_config_text(name), overrides=overrides)
