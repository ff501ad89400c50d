"""Hierarchical action space for pipeline search.

Three decision levels: a modeling paradigm, a paradigm-conditioned
architectural backbone, and up to two optimization refinements (one
hyperparameter grid point, one loss choice, either order, no repeats of a
kind). A special debug action is legal only at nodes whose evaluation
failed. Actions are plain strings so paths serialize trivially:

    paradigm:discriminative  backbone:resnet  hyperparam:h2  loss:huber  debug

A partial path materializes into a full pipeline candidate by filling the
documented defaults (first backbone of the paradigm, grid point h0, mse).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError, ValidationError

PARADIGMS = ("discriminative", "generative")

BACKBONES = {
    "discriminative": ("resnet", "gated_mlp", "pathway_masked"),
    "generative": ("conditional_vae", "flow_matching"),
}

LOSSES = ("mse", "huber")


@dataclass(frozen=True)
class HyperparamPoint:
    name: str
    learning_rate: float
    reg_strength: float
    dropout: float


# the fixed grid of hyperparameter refinements; h0 is the materialization default
HYPERPARAM_GRID = (
    HyperparamPoint("h0", learning_rate=1e-2, reg_strength=1e-2, dropout=0.0),
    HyperparamPoint("h1", learning_rate=1e-3, reg_strength=1e-1, dropout=0.0),
    HyperparamPoint("h2", learning_rate=1e-2, reg_strength=1.0, dropout=0.1),
    HyperparamPoint("h3", learning_rate=1e-3, reg_strength=1e-3, dropout=0.2),
)

_GRID_BY_NAME = {p.name: p for p in HYPERPARAM_GRID}

DEBUG_ACTION = "debug"


def action_kind(action: str) -> str:
    if action == DEBUG_ACTION:
        return "debug"
    kind, _, _ = action.partition(":")
    return kind


def action_value(action: str) -> str:
    _, _, value = action.partition(":")
    return value


@dataclass(frozen=True)
class Candidate:
    """A fully materialized pipeline configuration."""

    paradigm: str
    backbone: str
    hyperparams: HyperparamPoint
    loss: str
    debug_fixed: bool = False

    def __post_init__(self):
        if self.paradigm not in PARADIGMS:
            raise ValidationError(f"unknown paradigm {self.paradigm!r}")
        if self.backbone not in BACKBONES[self.paradigm]:
            raise ValidationError(
                f"backbone {self.backbone!r} is not legal under {self.paradigm!r}"
            )
        if self.loss not in LOSSES:
            raise ValidationError(f"unknown loss {self.loss!r}")

    def key(self) -> str:
        base = f"{self.paradigm}/{self.backbone}/{self.hyperparams.name}/{self.loss}"
        return base + "/fixed" if self.debug_fixed else base


def materialize(path: tuple[str, ...]) -> Candidate:
    """Fill a (possibly partial) action path into a full candidate."""
    paradigm = None
    backbone = None
    point = None
    loss = None
    debug_fixed = False
    for action in path:
        kind = action_kind(action)
        value = action_value(action)
        if kind == "paradigm":
            paradigm = value
        elif kind == "backbone":
            backbone = value
        elif kind == "hyperparam":
            if value not in _GRID_BY_NAME:
                raise ValidationError(f"unknown hyperparam point {value!r}")
            point = _GRID_BY_NAME[value]
        elif kind == "loss":
            loss = value
        elif kind == "debug":
            debug_fixed = True
        else:
            raise ValidationError(f"unknown action {action!r}")
    if paradigm is None:
        raise ParameterError("cannot materialize a path with no paradigm")
    if backbone is None:
        backbone = BACKBONES[paradigm][0]
    return Candidate(
        paradigm=paradigm,
        backbone=backbone,
        hyperparams=point or HYPERPARAM_GRID[0],
        loss=loss or LOSSES[0],
        debug_fixed=debug_fixed,
    )


def hierarchical_path(path: tuple[str, ...]) -> tuple[str, ...]:
    """The debug-free, hierarchy-legal path that materializes like ``path``.

    Keeps the paradigm, names the backbone (filling the default when the
    path has refinements but no backbone), then the refinements in their
    original order. A hierarchical path comes back with its debug actions
    dropped and nothing else changed; a flat-mode path is reordered.
    """
    candidate = materialize(path)
    refinements = tuple(a for a in path if action_kind(a) in ("hyperparam", "loss"))
    head = (f"paradigm:{candidate.paradigm}",)
    if refinements or any(action_kind(a) == "backbone" for a in path):
        head += (f"backbone:{candidate.backbone}",)
    return head + refinements


def legal_actions(
    path: tuple[str, ...],
    status: str = "valid",
    mode: str = "hierarchical",
) -> tuple[str, ...]:
    """Actions available below a node with the given action path.

    Hierarchical mode fixes the level order paradigm -> backbone ->
    refinements, never offering a higher-level action once a lower level is
    entered. Flat mode offers backbone and refinement actions jointly at
    every depth after the paradigm. In both modes a bug node additionally
    offers the debug action.
    """
    kinds = [action_kind(a) for a in path if action_kind(a) != "debug"]
    actions: list[str] = []
    paradigm = next(
        (action_value(a) for a in path if action_kind(a) == "paradigm"), None
    )
    if paradigm is None:
        actions = [f"paradigm:{p}" for p in PARADIGMS]
    else:
        n_refinements = sum(1 for k in kinds if k in ("hyperparam", "loss"))
        has_backbone = "backbone" in kinds
        hyperparam_taken = "hyperparam" in kinds
        loss_taken = "loss" in kinds
        offer_backbone = not has_backbone
        offer_refinements = n_refinements < 2
        if mode == "hierarchical":
            # refinements unlock only after the backbone; the backbone is
            # only offered before any refinement exists
            offer_backbone = offer_backbone and n_refinements == 0
            offer_refinements = offer_refinements and has_backbone
        elif mode != "flat_ablation":
            raise ParameterError(f"unknown search mode {mode!r}")
        if offer_backbone:
            actions.extend(f"backbone:{b}" for b in BACKBONES[paradigm])
        if offer_refinements:
            if not hyperparam_taken:
                actions.extend(f"hyperparam:{p.name}" for p in HYPERPARAM_GRID)
            if not loss_taken:
                actions.extend(f"loss:{l}" for l in LOSSES)
    if status == "bug":
        actions.append(DEBUG_ACTION)
    return tuple(actions)


def validate_action_path(path: tuple[str, ...], mode: str = "hierarchical") -> None:
    """Check that a stored action path is non-empty, hierarchy-legal and debug-free."""
    if not path:
        raise ValidationError("stored action paths must not be empty")
    prefix: tuple[str, ...] = ()
    for action in path:
        if action == DEBUG_ACTION:
            raise ValidationError("stored action paths must not contain debug actions")
        legal = legal_actions(prefix, status="valid", mode=mode)
        if action not in legal:
            raise ValidationError(
                f"action {action!r} is not legal after path {list(prefix)}"
            )
        prefix = prefix + (action,)


def enumerate_candidates() -> tuple[Candidate, ...]:
    """Every hierarchy-legal materialized candidate, in canonical order."""
    return tuple(
        Candidate(paradigm=paradigm, backbone=backbone, hyperparams=point, loss=loss)
        for paradigm in PARADIGMS
        for backbone in BACKBONES[paradigm]
        for point in HYPERPARAM_GRID
        for loss in LOSSES
    )
