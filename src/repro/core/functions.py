"""Aggregation functions: the UPDATE step of the push–pull protocol.

The generic protocol of the paper (Figure 1) is parameterised by a single
method ``UPDATE(s_p, s_q)`` that computes new local states from the two
states exchanged by peers ``p`` and ``q``.  This module captures that
parameterisation in the :class:`AggregationFunction` interface and provides
the concrete functions discussed in Sections 3 and 5:

* :class:`AverageFunction` — ``UPDATE(a, b) = ((a+b)/2, (a+b)/2)``; the
  elementary variance-reduction step.  Converges to the arithmetic mean.
* :class:`MinFunction` / :class:`MaxFunction` — epidemic broadcast of the
  extremal value.
* :class:`GeometricMeanFunction` — ``UPDATE(a, b) = (√(ab), √(ab))``;
  converges to the geometric mean, and combined with COUNT yields the
  global product.
* :class:`PushSumFunction` — the push-only (value, weight) scheme of
  Kempe et al., included as the baseline the paper compares against in its
  related-work discussion; used by the push-pull-vs-push-only ablation.
* :class:`VectorFunction` — runs several functions side by side on tuple
  states, which is how SUM/VARIANCE/PRODUCT and multi-instance COUNT are
  assembled from the primitives.

All functions are *stateless*: per-node state is an opaque value held by
the engine, and the function only knows how to initialise, merge and read
it.  Every function carries two codecs for that state — the scalar one
(``initial_state``/``merge``/``estimate``) driven one exchange at a time
by the reference engine, and the array one (``state_width``,
``merge_arrays``, …) driven in batches by the array engines — so every
function runs on every engine.
"""

from __future__ import annotations

import abc
import math
from functools import cached_property
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import ProtocolError

__all__ = [
    "AggregationFunction",
    "AverageFunction",
    "MinFunction",
    "MaxFunction",
    "GeometricMeanFunction",
    "PushSumFunction",
    "VectorFunction",
]

#: Byte budget of one row block of a float64 state pass.  The array
#: engines encode, merge and reduce ``(rows, width)`` blocks at most this
#: many bytes of rows at a time (never less than one row), so a pass's
#: temporaries stay a small multiple of it however wide the block.
_STATE_BLOCK_BYTES = 1 << 18
#: Byte budget of one group of stacked replicas.  A figure point runs its
#: repetitions as consecutive stacked simulations of at most this many
#: law-predicted bytes of replicas each (never less than one replica), so
#: a point holds one group, not all its repetitions, at a time.
_REPLICA_GROUP_BYTES = 16 << 20


def replica_groups(repeats: int, replica_bytes: int) -> List[range]:
    """Consecutive ranges of ``repeats`` replicas, each within
    :data:`_REPLICA_GROUP_BYTES` at ``replica_bytes`` per replica.

    A replica above the budget forms a group alone.
    """
    step = max(1, _REPLICA_GROUP_BYTES // max(1, replica_bytes))
    return [range(start, min(start + step, repeats)) for start in range(0, repeats, step)]


def state_block_rows(width: int) -> int:
    """Rows of ``width`` float64 in one block: :data:`_STATE_BLOCK_BYTES`
    of them, at least one; a width-0 row counts as one float."""
    return max(1, _STATE_BLOCK_BYTES // (8 * max(1, width)))


def state_row_blocks(rows: int, width: int) -> List[slice]:
    """Consecutive slices of :func:`state_block_rows` covering ``rows`` rows.

    Every array codec operation is row-local, so a pass applied block by
    block is bit-identical to the same pass over all rows at once.
    """
    step = state_block_rows(width)
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


class AggregationFunction(abc.ABC):
    """Interface for the UPDATE step of the epidemic aggregation protocol."""

    #: Short machine-readable name used in reports.
    name: str = "abstract"

    @abc.abstractmethod
    def initial_state(self, local_value: float) -> Any:
        """Build the protocol state a node starts an epoch with."""

    @abc.abstractmethod
    def merge(self, initiator_state: Any, responder_state: Any) -> Tuple[Any, Any]:
        """Compute the post-exchange states ``(new_initiator, new_responder)``.

        For the push–pull functions of the paper the two returned states
        are identical; the pair form exists so that asymmetric schemes
        (push-only) and loss scenarios (response message dropped) can be
        expressed by applying only one side of the result.
        """

    @abc.abstractmethod
    def estimate(self, state: Any) -> Optional[float]:
        """Extract the aggregate estimate carried by ``state``.

        Returns ``None`` when the state carries no estimate yet (possible
        for map-based COUNT states before any leader information reached
        the node).
        """

    # ------------------------------------------------------------------
    # Optional capabilities, overridden where meaningful.
    # ------------------------------------------------------------------
    def conserved_quantity(self, states: Sequence[Any]) -> Optional[float]:
        """A quantity that every *complete* exchange leaves unchanged.

        Used by property-based tests: for averaging this is the sum of the
        states, for the geometric mean the product, for push-sum the sum of
        values and of weights.  ``None`` means the function conserves
        nothing exploitable (MIN/MAX).
        """
        return None

    # ------------------------------------------------------------------
    # Array codec: the array form of the same state, used by the
    # vectorised engine, the stacked repeats and the asynchronous engine.
    #
    # Every function stores its per-node state as a fixed-width vector of
    # floats as well: the array engines keep all states in one
    # ``(nodes, state_width)`` float64 array and apply :meth:`merge_arrays`
    # to whole batches of exchanges at once.  The array operations must be
    # *bit-identical* to the scalar :meth:`merge` (same expressions,
    # IEEE-754 float64), which is what makes the array engines reproduce
    # reference traces from the same seed.  They must also be row-local
    # (row i of a result depends on row i of the inputs only), so the
    # engines may apply them in row blocks (:func:`state_row_blocks`).
    # ------------------------------------------------------------------

    #: Whether :meth:`merge_arrays` also accepts flat ``(m,)`` state
    #: vectors (only meaningful for width-1 codecs).  The vectorised
    #: engine uses this to run on the flat state column, which is
    #: markedly faster than row-wise fancy indexing.
    flat_state_codec = False

    @abc.abstractmethod
    def state_width(self) -> int:
        """Number of float64 slots one node state occupies."""

    @abc.abstractmethod
    def initial_state_array(self, values: np.ndarray) -> np.ndarray:
        """Encode per-node local values into a ``(n, state_width)`` array."""

    @abc.abstractmethod
    def merge_arrays(
        self, initiator_states: np.ndarray, responder_states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`merge` over ``(m, state_width)`` state blocks."""

    @abc.abstractmethod
    def estimate_array(self, states: np.ndarray) -> np.ndarray:
        """Batched :meth:`estimate`; NaN marks "no estimate yet"."""

    @abc.abstractmethod
    def encode_state(self, state: Any) -> np.ndarray:
        """Encode one opaque state into a ``(state_width,)`` row."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class _ScalarArrayCodec:
    """Array codec shared by functions whose state is one plain float.

    The merge expressions are plain elementwise ufuncs, so they work on
    flat ``(m,)`` vectors as well as ``(m, 1)`` blocks — advertised via
    ``flat_state_codec``.
    """

    flat_state_codec = True

    def state_width(self) -> int:
        return 1

    def initial_state_array(self, values: np.ndarray) -> np.ndarray:
        array = np.asarray(values, dtype=np.float64).reshape(-1, 1)
        return array.copy()

    def estimate_array(self, states: np.ndarray) -> np.ndarray:
        return states[:, 0]

    def encode_state(self, state: float) -> np.ndarray:
        return np.array([float(state)], dtype=np.float64)


class AverageFunction(_ScalarArrayCodec, AggregationFunction):
    """The elementary averaging step: both peers adopt the pair mean."""

    name = "average"

    def initial_state(self, local_value: float) -> float:
        return float(local_value)

    def merge(self, initiator_state: float, responder_state: float) -> Tuple[float, float]:
        mean = (initiator_state + responder_state) / 2.0
        return mean, mean

    def estimate(self, state: float) -> float:
        return float(state)

    def conserved_quantity(self, states: Sequence[float]) -> float:
        return float(sum(states))

    def merge_arrays(
        self, initiator_states: np.ndarray, responder_states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        mean = (initiator_states + responder_states) / 2.0
        return mean, mean


class MinFunction(_ScalarArrayCodec, AggregationFunction):
    """Epidemic propagation of the minimum value."""

    name = "min"

    def initial_state(self, local_value: float) -> float:
        return float(local_value)

    def merge(self, initiator_state: float, responder_state: float) -> Tuple[float, float]:
        smallest = min(initiator_state, responder_state)
        return smallest, smallest

    def estimate(self, state: float) -> float:
        return float(state)

    def merge_arrays(
        self, initiator_states: np.ndarray, responder_states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        smallest = np.minimum(initiator_states, responder_states)
        return smallest, smallest


class MaxFunction(_ScalarArrayCodec, AggregationFunction):
    """Epidemic propagation of the maximum value."""

    name = "max"

    def initial_state(self, local_value: float) -> float:
        return float(local_value)

    def merge(self, initiator_state: float, responder_state: float) -> Tuple[float, float]:
        largest = max(initiator_state, responder_state)
        return largest, largest

    def estimate(self, state: float) -> float:
        return float(state)

    def merge_arrays(
        self, initiator_states: np.ndarray, responder_states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        largest = np.maximum(initiator_states, responder_states)
        return largest, largest


class GeometricMeanFunction(_ScalarArrayCodec, AggregationFunction):
    """Both peers adopt the geometric mean of their states.

    Requires non-negative local values; a zero anywhere drives the global
    geometric mean to zero, exactly as the mathematical definition does.
    """

    name = "geometric-mean"

    def initial_state(self, local_value: float) -> float:
        value = float(local_value)
        if value < 0:
            raise ProtocolError(
                f"geometric mean requires non-negative values, got {value}"
            )
        return value

    def merge(self, initiator_state: float, responder_state: float) -> Tuple[float, float]:
        mean = math.sqrt(initiator_state * responder_state)
        return mean, mean

    def estimate(self, state: float) -> float:
        return float(state)

    def conserved_quantity(self, states: Sequence[float]) -> float:
        product = 1.0
        for state in states:
            product *= state
        return product

    def initial_state_array(self, values: np.ndarray) -> np.ndarray:
        array = np.asarray(values, dtype=np.float64).reshape(-1, 1)
        if np.any(array < 0):
            raise ProtocolError("geometric mean requires non-negative values")
        return array.copy()

    def merge_arrays(
        self, initiator_states: np.ndarray, responder_states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        mean = np.sqrt(initiator_states * responder_states)
        return mean, mean


class PushSumFunction(AggregationFunction):
    """Push-only averaging with (value, weight) pairs (Kempe et al., FOCS'03).

    The initiator keeps half of its mass and pushes the other half to the
    responder; estimates are ``value / weight``.  Mass conservation holds
    over the *pair* of returned states, so the same exchange machinery can
    drive it, but only the push direction transfers information — which is
    why the paper's push–pull scheme converges roughly twice as fast per
    cycle.  Included as the ablation baseline.
    """

    name = "push-sum"

    def initial_state(self, local_value: float) -> Tuple[float, float]:
        return (float(local_value), 1.0)

    def merge(
        self, initiator_state: Tuple[float, float], responder_state: Tuple[float, float]
    ) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        value_i, weight_i = initiator_state
        value_r, weight_r = responder_state
        half_value, half_weight = value_i / 2.0, weight_i / 2.0
        new_initiator = (half_value, half_weight)
        new_responder = (value_r + half_value, weight_r + half_weight)
        return new_initiator, new_responder

    def estimate(self, state: Tuple[float, float]) -> Optional[float]:
        value, weight = state
        if weight <= 0.0:
            return None
        return value / weight

    def conserved_quantity(self, states: Sequence[Tuple[float, float]]) -> float:
        return float(sum(value for value, _ in states))

    # Array codec: column 0 carries the value, column 1 the weight.
    def state_width(self) -> int:
        return 2

    def initial_state_array(self, values: np.ndarray) -> np.ndarray:
        flat = np.asarray(values, dtype=np.float64).reshape(-1)
        states = np.empty((flat.size, 2), dtype=np.float64)
        states[:, 0] = flat
        states[:, 1] = 1.0
        return states

    def merge_arrays(
        self, initiator_states: np.ndarray, responder_states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        half = initiator_states / 2.0
        return half, responder_states + half

    def estimate_array(self, states: np.ndarray) -> np.ndarray:
        weights = states[:, 1]
        positive = weights > 0.0
        return np.divide(
            states[:, 0],
            weights,
            out=np.full(weights.shape, np.nan),
            where=positive,
        )

    def encode_state(self, state: Tuple[float, float]) -> np.ndarray:
        return np.array([float(state[0]), float(state[1])], dtype=np.float64)


class VectorFunction(AggregationFunction):
    """Run several aggregation functions in parallel on tuple states.

    This is the composition mechanism used throughout the library: SUM is a
    vector of (AVERAGE over values, AVERAGE over a peak distribution),
    VARIANCE is a vector of (AVERAGE over values, AVERAGE over squared
    values), and the multiple-concurrent-instances robustness technique of
    Section 7.3 is a vector of ``t`` COUNT instances.

    The per-node state is a tuple with one component per sub-function; an
    exchange merges every component, matching the paper's observation that
    concurrent instances simply share the same message exchanges.
    """

    name = "vector"

    def __init__(self, functions: Sequence[AggregationFunction]) -> None:
        if not functions:
            raise ProtocolError("VectorFunction requires at least one component")
        self._functions = tuple(functions)

    @property
    def components(self) -> Tuple[AggregationFunction, ...]:
        """The component functions, in order."""
        return self._functions

    def __len__(self) -> int:
        return len(self._functions)

    def initial_state(self, local_value) -> Tuple[Any, ...]:
        """Initialise every component.

        ``local_value`` may be a single number (broadcast to every
        component) or a sequence with one entry per component.
        """
        values = self._broadcast(local_value)
        return tuple(
            function.initial_state(value)
            for function, value in zip(self._functions, values)
        )

    def merge(self, initiator_state, responder_state):
        new_initiator = []
        new_responder = []
        for function, state_i, state_r in zip(
            self._functions, initiator_state, responder_state
        ):
            merged_i, merged_r = function.merge(state_i, state_r)
            new_initiator.append(merged_i)
            new_responder.append(merged_r)
        return tuple(new_initiator), tuple(new_responder)

    def estimate(self, state) -> Optional[float]:
        """The estimate of the *first* component (a scalar summary).

        Use :meth:`estimates` to read every component.
        """
        return self._functions[0].estimate(state[0])

    def estimates(self, state) -> Tuple[Optional[float], ...]:
        """Per-component estimates carried by ``state``."""
        return tuple(
            function.estimate(component)
            for function, component in zip(self._functions, state)
        )

    def _broadcast(self, local_value):
        if isinstance(local_value, (tuple, list)):
            if len(local_value) != len(self._functions):
                raise ProtocolError(
                    f"expected {len(self._functions)} initial values, got {len(local_value)}"
                )
            return tuple(local_value)
        return tuple(local_value for _ in self._functions)

    # ------------------------------------------------------------------
    # Array codec: component states are laid out side by side in columns.
    # ------------------------------------------------------------------
    def state_width(self) -> int:
        return sum(function.state_width() for function in self._functions)

    def _column_slices(self):
        slices = []
        offset = 0
        for function in self._functions:
            width = function.state_width()
            slices.append((function, slice(offset, offset + width)))
            offset += width
        return slices

    @cached_property
    def _merge_blocks(self) -> List[Tuple[AggregationFunction, slice]]:
        """Column slices with each run of same-class flat codecs fused: their
        merges are elementwise ufuncs, so one call per run is exact."""
        blocks: List[Tuple[AggregationFunction, slice]] = []
        for function, columns in self._column_slices():
            previous = blocks[-1][0] if blocks else None
            if function.flat_state_codec and type(previous) is type(function):
                blocks[-1] = (previous, slice(blocks[-1][1].start, columns.stop))
            else:
                blocks.append((function, columns))
        return blocks

    def initial_state_array(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            per_component = [values] * len(self._functions)
        elif values.ndim == 2 and values.shape[1] == len(self._functions):
            per_component = [values[:, index] for index in range(values.shape[1])]
        else:
            raise ProtocolError(
                f"expected (n,) or (n, {len(self._functions)}) initial values, "
                f"got shape {values.shape}"
            )
        columns = [
            function.initial_state_array(column)
            for (function, _), column in zip(self._column_slices(), per_component)
        ]
        return np.concatenate(columns, axis=1)

    def merge_arrays(
        self, initiator_states: np.ndarray, responder_states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        new_initiator = np.empty_like(initiator_states)
        new_responder = np.empty_like(responder_states)
        for function, columns in self._merge_blocks:
            merged_i, merged_r = function.merge_arrays(
                initiator_states[:, columns], responder_states[:, columns]
            )
            new_initiator[:, columns] = merged_i
            new_responder[:, columns] = merged_r
        return new_initiator, new_responder

    def estimate_array(self, states: np.ndarray) -> np.ndarray:
        first, columns = self._column_slices()[0]
        return first.estimate_array(states[:, columns])

    def encode_state(self, state) -> np.ndarray:
        return np.concatenate(
            [
                function.encode_state(component)
                for function, component in zip(self._functions, state)
            ]
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(type(f).__name__ for f in self._functions)
        return f"VectorFunction([{inner}])"
