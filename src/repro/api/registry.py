"""The controller registry: pluggable method factories behind one name space.

A *method* ("icoil", "il", "co", "expert", …) is a named
:class:`ControllerFactory` that builds a :class:`SessionController` for a
concrete scenario.  New policy families (offline-RL parking,
imagination-based planners, …) plug in with ``@register_method("name")``
and immediately work everywhere specs are accepted — sessions, batches,
fleets, experiments — without touching ``repro.eval``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro.co.controller import COController
from repro.core.config import ICOILConfig
from repro.core.controller import ControlStep
from repro.core.determinism import derive_seed
from repro.il.expert import ExpertDriver
from repro.il.policy import ILPolicy
from repro.perception.bev import BEVRenderer
from repro.perception.detector import DetectionNoiseModel, ObjectDetector
from repro.perception.noise import GaussianImageNoise, NoNoise
from repro.planning.reservation import ReservationLedger, ReservationTable
from repro.planning.waypoints import WaypointPath
from repro.spatial import SpatialIndex, TimeGrid, current_spatial_provider
from repro.vehicle.params import VehicleParams
from repro.vehicle.state import VehicleState
from repro.world.obstacles import Obstacle
from repro.world.parking_lot import ParkingLot
from repro.world.scenario import Scenario

from repro.api.specs import PerceptionOverrides, TimeLayerSpec


# ---------------------------------------------------------------------------
# The controller protocol
# ---------------------------------------------------------------------------
@runtime_checkable
class SessionController(Protocol):
    """What a factory must return: one ``step_split`` per simulation frame.

    ``step_split`` does the frame's work up to its MPC solve and returns
    ``(request, finish)``.  ``request`` is the frame's
    :class:`~repro.co.controller.COSolveRequest`, or ``None`` when the frame
    has no solve; ``finish(result)`` takes the solver result (``None`` for a
    ``None`` request) and returns the frame's :class:`ControlStep`.
    """

    def step_split(
        self,
        state: VehicleState,
        obstacles: Sequence[Obstacle],
        lot: ParkingLot,
        time: float = 0.0,
    ) -> Tuple[Optional[object], Callable[[object], ControlStep]]:
        ...


# ---------------------------------------------------------------------------
# Build context with lazy perception
# ---------------------------------------------------------------------------
class ControllerContext:
    """Everything a :class:`ControllerFactory` may need to build a controller.

    Perception components (BEV renderer, object detector) and the expert
    reference path are constructed *lazily* and cached, so methods that do
    not need them never pay their setup cost — an expert or CO batch no
    longer builds a BEV rendering pipeline it never uses.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        il_policy: Optional[ILPolicy] = None,
        vehicle_params: Optional[VehicleParams] = None,
        icoil: Optional[ICOILConfig] = None,
        perception: Optional[PerceptionOverrides] = None,
        time_layer: Optional[TimeLayerSpec] = None,
        dt: float = 0.1,
        reservation_ledger: Optional[ReservationLedger] = None,
        reservation_owner: Optional[str] = None,
        reservation_priority: int = 0,
    ) -> None:
        self.scenario = scenario
        self.il_policy = il_policy
        self.vehicle_params = vehicle_params or VehicleParams()
        self.icoil = icoil or ICOILConfig()
        self.perception = perception or PerceptionOverrides()
        self.time_layer_spec = time_layer or TimeLayerSpec()
        self.dt = dt
        # Multi-ego coordination is a *session*-level opt-in (never a spec
        # field): specs stay pure — their hashes, cache keys and solo trace
        # hashes are untouched by fleet coordination wiring.
        self.reservation_ledger = reservation_ledger
        self.reservation_owner = reservation_owner
        self.reservation_priority = reservation_priority
        self._renderer: Optional[BEVRenderer] = None
        self._detector: Optional[ObjectDetector] = None
        self._expert: Optional[ExpertDriver] = None
        self._reference_path: Optional[WaypointPath] = None
        self._spatial_index: Optional[SpatialIndex] = None
        self._timegrid: Optional[TimeGrid] = None
        self._timegrid_built = False
        self._reservations: Optional[ReservationTable] = None
        self._reservations_built = False

    # -- resolved perception noise ------------------------------------
    @property
    def image_noise_std(self) -> float:
        if self.perception.image_noise_std is not None:
            return self.perception.image_noise_std
        return self.scenario.config.resolved_image_noise

    @property
    def detection_noise_std(self) -> float:
        if self.perception.detection_noise_std is not None:
            return self.perception.detection_noise_std
        return self.scenario.config.resolved_detection_noise

    def _perception_seed(self, domain: str) -> int:
        """The seed for one perception component, honouring the compat flag.

        Legacy derivation reuses the raw scenario seed for both components
        (byte-compatible with every pinned trace, but it correlates the
        noise streams with each other and with obstacle placement); domain
        derivation gives each component its own stream via
        :func:`~repro.core.determinism.derive_seed`.
        """
        config = self.scenario.config
        if config.seed_derivation == "legacy":
            return config.seed
        return derive_seed(config.seed, domain)

    # -- lazy components ----------------------------------------------
    @property
    def has_renderer(self) -> bool:
        """Whether the BEV renderer has been built (laziness introspection)."""
        return self._renderer is not None

    @property
    def has_detector(self) -> bool:
        """Whether the object detector has been built (laziness introspection)."""
        return self._detector is not None

    @property
    def renderer(self) -> BEVRenderer:
        """The BEV renderer, built on first access."""
        if self._renderer is None:
            std = self.image_noise_std
            noise = GaussianImageNoise(std=std) if std > 0.0 else NoNoise()
            self._renderer = BEVRenderer(
                noise=noise, seed=self._perception_seed("perception.render")
            )
        return self._renderer

    @property
    def detector(self) -> ObjectDetector:
        """The object detector, built on first access."""
        if self._detector is None:
            self._detector = ObjectDetector(
                noise=DetectionNoiseModel.for_difficulty(self.detection_noise_std),
                seed=self._perception_seed("perception.detect"),
            )
        return self._detector

    @property
    def spatial_index(self) -> SpatialIndex:
        """The scenario's static-scene spatial index, built on first access.

        Shared by every consumer of this context — the expert's planner, the
        iCOIL HSA distances and the CO constraint seeding all query the same
        precomputed occupancy grid + ESDF.
        """
        if self._spatial_index is None:
            provider = current_spatial_provider()
            if provider is not None:
                self._spatial_index = provider.spatial_index(
                    self.scenario, self.vehicle_params
                )
            if self._spatial_index is None:
                self._spatial_index = SpatialIndex.from_scenario(
                    self.scenario, vehicle_params=self.vehicle_params
                )
            # Always (re)attach: a provider may hand back an index shared
            # with earlier episodes whose time-layer spec differed.
            self._spatial_index.attach_time_layer(self.timegrid)
        return self._spatial_index

    @property
    def timegrid(self) -> Optional[TimeGrid]:
        """The time-indexed dynamic layer, built on first access.

        ``None`` when the spec disables it or the scenario has no dynamic
        obstacles — static episodes never pay for the slice rasters.  Shared
        by every consumer: the expert's planner, the HSA time-to-conflict
        term and the CO per-stage constraints all see the same slices.
        """
        if not self._timegrid_built:
            self._timegrid_built = True
            spec = self.time_layer_spec
            if spec.enabled and self.scenario.dynamic_obstacles:
                provider = current_spatial_provider()
                if provider is not None:
                    self._timegrid = provider.timegrid(
                        self.scenario, self.vehicle_params, spec
                    )
                if self._timegrid is None:
                    self._timegrid = TimeGrid.from_scenario(
                        self.scenario,
                        vehicle_params=self.vehicle_params,
                        horizon=spec.horizon,
                        slice_dt=spec.slice_dt,
                        resolution=spec.resolution,
                    )
        return self._timegrid

    @property
    def reservations(self) -> Optional[ReservationTable]:
        """The session's space-time reservation table, built on first access.

        Wraps :attr:`timegrid` (the patrol reservation source) plus the
        optional fleet ledger, scoped by this session's owner/priority.
        Every temporal consumer — the expert's yield/brake policy, the
        time-aware planner, the HSA time-to-conflict term and the CO
        per-stage constraints — reads this one table.  ``None`` when there
        is no time layer *and* no ledger (static solo episodes pay
        nothing); with no ledger the table answers bit-identically to the
        raw grid.
        """
        if not self._reservations_built:
            self._reservations_built = True
            grid = self.timegrid
            if grid is not None or self.reservation_ledger is not None:
                self._reservations = ReservationTable(
                    grid,
                    self.vehicle_params,
                    ledger=self.reservation_ledger,
                    owner=self.reservation_owner,
                    priority=self.reservation_priority,
                )
        return self._reservations

    @property
    def expert(self) -> ExpertDriver:
        """The scripted expert for this scenario, built on first access.

        When the installed spatial provider also offers a cross-episode
        plan cache (``plan_cache_for`` — duck-typed so this layer never
        imports ``repro.serve``), the expert's hybrid-A* queries go through
        it: warm workers replaying a scenario skip the search and attach
        the byte-identical published plan.
        """
        if self._expert is None:
            provider = current_spatial_provider()
            hook = getattr(provider, "plan_cache_for", None) if provider else None
            plan_cache = (
                hook(self.scenario, self.vehicle_params, self.time_layer_spec)
                if hook is not None
                else None
            )
            self._expert = ExpertDriver(
                self.scenario.lot,
                self.scenario.obstacles,
                self.vehicle_params,
                spatial_index=self.spatial_index,
                timegrid=self.reservations,
                plan_cache=plan_cache,
            )
        return self._expert

    @property
    def reference_path(self) -> WaypointPath:
        """The expert's global reference path from the scenario's start pose."""
        if self._reference_path is None:
            path = self.expert.plan_reference(self.scenario.start_pose)
            if path is None:
                raise RuntimeError("could not plan a reference path for the scenario")
            self._reference_path = path
        return self._reference_path

    # -- helpers -------------------------------------------------------
    def make_co_controller(self) -> COController:
        """A fresh constrained-optimization controller (stateful, per-episode)."""
        return COController(
            self.vehicle_params,
            horizon=self.icoil.horizon,
            dt=self.dt,
            spatial_index=self.spatial_index,
            timegrid=self.reservations,
        )

    def require_policy(self, method: str) -> ILPolicy:
        if self.il_policy is None:
            raise ValueError(f"an IL policy is required for the {method!r} method")
        return self.il_policy


ControllerFactory = Callable[[ControllerContext], SessionController]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class ControllerRegistry:
    """A name → :class:`ControllerFactory` mapping with decorator registration."""

    def __init__(self) -> None:
        self._factories: Dict[str, ControllerFactory] = {}

    def names(self) -> Tuple[str, ...]:
        """Registered method names, in registration order."""
        return tuple(self._factories)

    def __contains__(self, method: str) -> bool:
        return method in self._factories

    def register(
        self,
        name: str,
        factory: Optional[ControllerFactory] = None,
        *,
        overwrite: bool = False,
    ):
        """Register ``factory`` under ``name``; usable as a decorator.

        Raises :class:`ValueError` if the name is already taken (unless
        ``overwrite=True``), so typos do not silently shadow built-ins.
        """
        if not name:
            raise ValueError("method name must be non-empty")

        def _register(factory: ControllerFactory) -> ControllerFactory:
            if name in self._factories and not overwrite:
                raise ValueError(
                    f"method {name!r} is already registered; pass overwrite=True to replace it"
                )
            self._factories[name] = factory
            return factory

        if factory is None:
            return _register
        return _register(factory)

    def unregister(self, name: str) -> None:
        """Remove a registered method (mainly for tests)."""
        self._factories.pop(name, None)

    def factory_for(self, method: str) -> ControllerFactory:
        try:
            return self._factories[method]
        except KeyError:
            registered = ", ".join(repr(name) for name in self.names()) or "<none>"
            raise ValueError(
                f"unknown method {method!r}; registered methods: {registered}"
            ) from None

    def create(self, method: str, context: ControllerContext) -> SessionController:
        """Build the controller for ``method`` on the given context."""
        return self.factory_for(method)(context)


# The process-wide default registry onto which the built-in methods (and any
# user methods declared with :func:`register_method`) are installed.
DEFAULT_REGISTRY = ControllerRegistry()


def register_method(name: str, *, overwrite: bool = False):
    """Decorator registering a factory on the default registry.

    Example::

        @register_method("my-planner")
        def build_my_planner(context: ControllerContext) -> SessionController:
            return MyPlanner(context.scenario, context.vehicle_params)
    """
    return DEFAULT_REGISTRY.register(name, overwrite=overwrite)


def default_registry() -> ControllerRegistry:
    """The registry holding the built-in iCOIL methods."""
    return DEFAULT_REGISTRY
