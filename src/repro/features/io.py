"""Persistence of the feature plane (vocabulary + packed artifacts).

A fitted :class:`~repro.features.store.FeatureStore` is the dominant setup
cost of a database after parsing; persisting it lets a reloaded database
skip extraction entirely (its ``extraction_passes`` counter stays 0 — the
round-trip tests assert exactly that).

The JSON document stores the interned vocabulary once (branch keys in id
order, each key the list of its tagged labels — see :func:`_encode_label`)
and, per tree, only the irreducible raw material: sizes, degree
histograms, height multisets and per-branch position lists in occurrence
order.  Everything else — packed vectors, sorted position sequences,
traversal strings, label histograms — is *derived* at load time from
those, without touching any tree:

* sorted pre/post sequences: sort the occurrence-order lists;
* packed vectors: occurrence counts are the pair-list lengths, interned
  against the restored vocabulary (ids match by construction — the
  vocabulary is restored in id order);
* traversal strings / label histogram: the branch key's root label is the
  label of the node at that branch's preorder (and postorder) position.

Next to the JSON plane lives an optional binary *matrix sidecar*
(``<path>.matrices.npz``): the dense corpus-level branch planes of
:mod:`repro.features.matrix`, so a reloaded database starts with its
vectorized candidate-generation kernels warm instead of re-scattering
every packed vector on first query.  The sidecar is strictly an
accelerator — it is validated against the store (version, generation,
tree count) and silently ignored when stale or absent, in which case the
planes are rebuilt lazily as usual.
"""

from __future__ import annotations

import json
import os
import warnings
import zipfile
from collections import Counter
from typing import Any, Dict, List, Union

import numpy as np

from repro.core.branches import BinaryBranch
from repro.core.positional import PositionalProfile
from repro.core.qlevel import QLevelBranch
from repro.exceptions import TreeParseError
from repro.features.extract import TreeFeatures
from repro.features.store import FeatureStore
from repro.trees.binary import EPSILON

__all__ = [
    "save_feature_plane",
    "load_feature_plane",
    "matrix_sidecar_path",
    "save_matrix_sidecar",
    "load_matrix_sidecar",
    "sidecar_fallback",
]

_FORMAT = "repro-features"
_VERSION = 1

PathLike = Union[str, os.PathLike]


def sidecar_fallback(sidecar: str, reason: str) -> None:
    """Record that a sidecar was ignored in favour of a lazy rebuild.

    Sidecars (the ``.matrices.npz`` dense planes) are strictly
    accelerators: a corrupt or stale one is skipped, never fatal.  That
    degradation must still be *observable* — this bumps
    ``repro_sidecar_fallback_total{sidecar,reason}`` on the process-wide
    registry so a fleet silently rebuilding on every load shows up on
    dashboards instead of only in latency.
    """
    from repro.obs.metrics import get_registry

    get_registry().counter(
        "repro_sidecar_fallback_total",
        "sidecar files ignored (corrupt/stale/version) in favour of rebuild",
        ("sidecar", "reason"),
    ).inc(sidecar=sidecar, reason=reason)


def matrix_sidecar_path(path: PathLike) -> str:
    """Where the dense matrix sidecar of plane ``path`` lives."""
    return f"{os.fspath(path)}.matrices.npz"


def _encode_label(label: Any) -> List:
    """Tagged JSON form of one label.

    ``["e"]`` is the ε padding label, ``["s", text]`` a string, and
    ``["b", flag]`` / ``["i", 42]`` / ``["f", 1.5]`` / ``["n"]`` the other
    JSON scalars.  Anything else raises
    :class:`~repro.exceptions.TreeParseError` at save time.
    """
    if label is EPSILON:
        return ["e"]
    if isinstance(label, str):
        return ["s", label]
    if isinstance(label, bool):  # before int: bool is an int subtype
        return ["b", label]
    if isinstance(label, int):
        return ["i", label]
    if isinstance(label, float):
        return ["f", label]
    if label is None:
        return ["n"]
    raise TreeParseError(
        f"cannot serialize label of type {type(label).__name__}"
    )


def _decode_label(encoded: List) -> Any:
    tag = encoded[0]
    if tag == "e":
        return EPSILON
    if tag in ("s", "b", "i", "f"):
        return encoded[1]
    if tag == "n":
        return None
    raise TreeParseError(f"unknown label tag {tag!r}")


def _encode_key(key) -> List:
    if isinstance(key, BinaryBranch):
        labels = tuple(key)
    elif isinstance(key, QLevelBranch):
        labels = key.labels
    else:
        raise TreeParseError(f"unknown branch type {type(key).__name__}")
    return [_encode_label(label) for label in labels]


def _decode_key(encoded: List):
    labels = tuple(_decode_label(item) for item in encoded)
    if len(labels) == 3:
        # 2-level windows are always BinaryBranch triples in the store
        return BinaryBranch(*labels)
    return QLevelBranch(labels)


def _root_label(key):
    return key.root if isinstance(key, BinaryBranch) else key.labels[0]


def save_feature_plane(store: FeatureStore, path: PathLike) -> None:
    """Serialize a fitted feature store to ``path`` as JSON."""
    vocabulary = store.vocabulary
    trees = []
    for features in store:
        profiles: Dict[str, List] = {}
        for q in store.q_levels:
            entries = []
            for branch, pairs in features.profiles[q].pairs.items():
                dim = vocabulary.lookup(branch)
                assert dim is not None  # store-side branches are interned
                entries.append(
                    [dim, [pre for pre, _ in pairs], [post for _, post in pairs]]
                )
            profiles[str(q)] = entries
        trees.append(
            {
                "size": features.size,
                "leaves": features.leaf_count,
                "degrees": sorted(features.degrees.items()),
                "heights": features.heights,
                "profiles": profiles,
            }
        )
    document = {
        "format": _FORMAT,
        "version": _VERSION,
        "q_levels": list(store.q_levels),
        "generation": store.generation,
        "vocabulary": [_encode_key(key) for key in vocabulary],
        "trees": trees,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    save_matrix_sidecar(store, path)


def save_matrix_sidecar(store: FeatureStore, path: PathLike) -> str:
    """Persist the store's dense branch planes next to the JSON plane.

    Only the branch planes are written — they are the rebuild-heavy
    families; histogram planes key on arbitrary labels and are cheap to
    rebuild from the restored features.  Returns the sidecar path.
    """
    matrices = store.matrices()
    payload: Dict[str, np.ndarray] = {
        "meta": np.asarray(
            [_VERSION, store.generation, len(store)], dtype=np.int64
        ),
        "q_levels": np.asarray(store.q_levels, dtype=np.int64),
    }
    for q in store.q_levels:
        plane = matrices.branch_plane(q)
        payload[f"branch_q{q}"] = plane.matrix
        payload[f"branch_q{q}_totals"] = plane.row_totals
    sidecar = matrix_sidecar_path(path)
    with open(sidecar, "wb") as handle:
        np.savez_compressed(handle, **payload)
    return sidecar


def load_matrix_sidecar(store: FeatureStore, path: PathLike) -> bool:
    """Adopt a matrix sidecar into ``store`` if present and fresh.

    Returns True when the dense planes were installed; False (store
    untouched, planes rebuilt lazily later) when the sidecar is missing
    or does not match the store's version/generation/size.
    """
    sidecar = matrix_sidecar_path(path)
    if not os.path.exists(sidecar):
        return False
    try:
        with np.load(sidecar) as data:
            meta = data["meta"]
            if int(meta[0]) != _VERSION:
                sidecar_fallback("matrices", "version")
                return False
            if int(meta[1]) != store.generation or int(meta[2]) != len(store):
                sidecar_fallback("matrices", "stale")
                return False
            if tuple(int(q) for q in data["q_levels"]) != store.q_levels:
                sidecar_fallback("matrices", "stale")
                return False
            for q in store.q_levels:
                key = f"branch_q{q}"
                if key not in data or f"{key}_totals" not in data:
                    sidecar_fallback("matrices", "stale")
                    return False
            for q in store.q_levels:
                store.matrices().adopt_branch_plane(
                    q, data[f"branch_q{q}"], data[f"branch_q{q}_totals"]
                )
    except (OSError, ValueError, KeyError, IndexError, zipfile.BadZipFile) as error:
        # truncated/garbled archive: np.load (zip layer) raises a mix of
        # these depending on where the corruption sits — never fatal, the
        # planes rebuild lazily exactly as if the sidecar were absent
        warnings.warn(
            f"ignoring corrupt matrix sidecar {sidecar}: {error}",
            stacklevel=2,
        )
        sidecar_fallback("matrices", "corrupt")
        return False
    return True


def load_feature_plane(path: PathLike) -> FeatureStore:
    """Restore a feature store written by :func:`save_feature_plane`.

    The restored store performs **no** tree traversals
    (``store.extraction_passes == 0``); all artifacts are rebuilt from the
    persisted raw material.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("format") != _FORMAT:
        raise TreeParseError(f"{path}: not a repro feature plane")
    if document.get("version") != _VERSION:
        raise TreeParseError(
            f"{path}: unsupported feature-plane version {document.get('version')!r}"
        )
    store = FeatureStore(q_levels=document["q_levels"])
    keys = [_decode_key(encoded) for encoded in document["vocabulary"]]
    for key in keys:
        store.vocabulary.intern(key)
    derive_q = store.q_levels[0]
    for record in document["trees"]:
        size = record["size"]
        branch_counts: Dict[int, Dict] = {}
        profiles: Dict[int, PositionalProfile] = {}
        for q in store.q_levels:
            pre: Dict = {}
            post: Dict = {}
            pairs: Dict = {}
            counts: Dict = {}
            for dim, raw_pre, raw_post in record["profiles"][str(q)]:
                branch = keys[dim]
                pre[branch] = sorted(raw_pre)
                post[branch] = sorted(raw_post)
                pairs[branch] = list(zip(raw_pre, raw_post))
                counts[branch] = len(raw_pre)
            branch_counts[q] = counts
            profiles[q] = PositionalProfile(pre, post, pairs, size, q)
        pre_labels: List = [None] * size
        post_labels: List = [None] * size
        for branch, occurrence_pairs in profiles[derive_q].pairs.items():
            label = _root_label(branch)
            for pre_position, post_position in occurrence_pairs:
                pre_labels[pre_position - 1] = label
                post_labels[post_position - 1] = label
        features = TreeFeatures(
            size=size,
            branch_counts=branch_counts,
            profiles=profiles,
            labels=dict(Counter(pre_labels)),
            degrees={degree: count for degree, count in record["degrees"]},
            heights=list(record["heights"]),
            pre_labels=pre_labels,
            post_labels=post_labels,
            leaf_count=record["leaves"],
        )
        store._append(features)
    store.generation = document.get("generation", 0)
    load_matrix_sidecar(store, path)
    return store
