"""repro — a reproduction of *Auditing for Spatial Fairness* (EDBT 2023).

The package audits point-located algorithmic outcomes for spatial
fairness: a Monte Carlo scan over a predetermined candidate region set
tests whether outcomes are independent of location and localises the
regions responsible, with exact multiple-testing control.

Quickstart — one declarative front door serves every audit family::

    import repro
    from repro.datasets import generate_synth

    data = generate_synth(seed=0)
    report = (repro.audit(data.coords, data.y_pred)
              .partition(10, 10).worlds(199).seed(1).run())
    print(report.summary())

The same request as a serializable value object::

    session = repro.AuditSession(data.coords, data.y_pred)
    spec = repro.AuditSpec(regions=repro.RegionSpec.grid(10, 10),
                           n_worlds=199, seed=1)
    report = session.run(spec)          # == the builder's, bit for bit
    payload = report.to_dict()          # stable, versioned, JSON-ready

Or from the command line: ``python -m repro run spec.json --data
data.npz``.

Batches of specs over one dataset fuse their Monte Carlo passes
through :class:`repro.serve.AuditService` (see :mod:`repro.serve`),
or from the shell: ``python -m repro batch specs/*.json --data
data.npz``.

Many datasets and tenants at once go through the gateway
(:mod:`repro.gateway`): one table of named read-only datasets, each
with its own service, bounded admission with per-tenant quotas, and
a stdlib HTTP front door — ``python -m repro serve --port 8080``.
With ``--store PATH`` the gateway journals every ticket to a durable
sqlite store (:mod:`repro.ticketstore`): tickets survive restarts and
journalled-but-unsettled audits are re-run on boot, byte-identical.
Crash safety is provable on purpose via the deterministic
fault-injection layer (:mod:`repro.faults`, ``REPRO_FAULTS``).

Module map: :mod:`repro.api` (sessions, reports, the builder),
:mod:`repro.serve` (batched multi-spec service, fused simulation),
:mod:`repro.gateway` (multi-tenant front door: back-pressure, HTTP),
:mod:`repro.ticketstore` (durable sqlite ticket journal),
:mod:`repro.faults` (deterministic fault injection),
:mod:`repro.spec` (declarative audit requests), :mod:`repro.core`
(family/measure registries, dispatch, legacy auditors, analyses),
:mod:`repro.engine` (shared threaded Monte Carlo engine),
:mod:`repro.budget` (world-budget policies, sequential stopping),
:mod:`repro.geometry` (regions and partitionings), :mod:`repro.stats`
(statistic kernels), :mod:`repro.kernels` (hot-path LLR and recount
kernels), :mod:`repro.fingerprint` (dataset content fingerprints for
cache keys), :mod:`repro.index` (sparse region membership),
:mod:`repro.baselines` (MeanVar, naive testing),
:mod:`repro.datasets` (paper-shaped generators), :mod:`repro.forest`
(numpy random forest), :mod:`repro.viz` (SVG figures).
"""

from .api import (
    AuditBuilder,
    AuditReport,
    AuditSession,
    ResolvedSpec,
    audit,
)
from .budget import BudgetPolicy, StopDecision
from .baselines import (
    Contribution,
    MeanVarScore,
    NaiveAuditResult,
    mean_variance,
    naive_audit,
    rank_contributions,
    top_contributors,
)
from .core import (
    CORRECTIONS,
    FAMILIES,
    MEASURES,
    AuditResult,
    Finding,
    GerrymanderScore,
    Measure,
    MeasureDef,
    MultinomialSpatialAuditor,
    PoissonSpatialAuditor,
    PowerAnalysis,
    PowerEstimate,
    ScanFamily,
    SpatialFairnessAuditor,
    equal_opportunity,
    gerrymander_score,
    log_likelihood_ratio,
    predictive_equality,
    register_family,
    register_measure,
    select_non_overlapping,
)
from .datasets import SpatialDataset
from .engine import (
    BernoulliKernel,
    LLRKernel,
    MonteCarloEngine,
    MultinomialKernel,
    PoissonKernel,
)
from .geometry import (
    GridPartitioning,
    Rect,
    Region,
    RegionSet,
    circle_region_set,
    paper_side_lengths,
    partition_region_set,
    random_partitionings,
    scan_centers,
    square_region_set,
)
from .faults import (
    FailPoint,
    FaultInjected,
    clear_faults,
    install_faults,
)
from .fingerprint import (
    array_fingerprint,
    dataset_fingerprint,
)
from .gateway import (
    AuditGateway,
    GatewayDrainingError,
    GatewayError,
    GatewayFullError,
    GatewayHTTPServer,
    GatewayTicket,
    RequestTooLargeError,
    TenantQuotaError,
    TicketFailedError,
    TicketRecoveryError,
    UnknownDatasetError,
    serve_http,
)
from .index import RegionMembership, StackedMembership
from .serve import AuditService, PendingAudit
from .spec import AuditSpec, RegionSpec
from .ticketstore import TicketRecord, TicketStore, TicketStoreError

__version__ = "0.9.0"

__all__ = [
    "AuditBuilder",
    "AuditGateway",
    "AuditReport",
    "AuditResult",
    "AuditService",
    "AuditSession",
    "AuditSpec",
    "BernoulliKernel",
    "BudgetPolicy",
    "CORRECTIONS",
    "Contribution",
    "FAMILIES",
    "FailPoint",
    "FaultInjected",
    "Finding",
    "GatewayDrainingError",
    "GatewayError",
    "GatewayFullError",
    "GatewayHTTPServer",
    "GatewayTicket",
    "GerrymanderScore",
    "GridPartitioning",
    "LLRKernel",
    "MEASURES",
    "Measure",
    "MeasureDef",
    "MeanVarScore",
    "MonteCarloEngine",
    "MultinomialKernel",
    "MultinomialSpatialAuditor",
    "NaiveAuditResult",
    "PendingAudit",
    "PoissonKernel",
    "PoissonSpatialAuditor",
    "PowerAnalysis",
    "PowerEstimate",
    "Rect",
    "Region",
    "RegionMembership",
    "RegionSet",
    "RegionSpec",
    "RequestTooLargeError",
    "ResolvedSpec",
    "ScanFamily",
    "StackedMembership",
    "SpatialDataset",
    "SpatialFairnessAuditor",
    "StopDecision",
    "TenantQuotaError",
    "TicketFailedError",
    "TicketRecord",
    "TicketRecoveryError",
    "TicketStore",
    "TicketStoreError",
    "UnknownDatasetError",
    "array_fingerprint",
    "audit",
    "circle_region_set",
    "clear_faults",
    "dataset_fingerprint",
    "equal_opportunity",
    "gerrymander_score",
    "install_faults",
    "log_likelihood_ratio",
    "mean_variance",
    "naive_audit",
    "paper_side_lengths",
    "partition_region_set",
    "predictive_equality",
    "random_partitionings",
    "rank_contributions",
    "register_family",
    "register_measure",
    "scan_centers",
    "select_non_overlapping",
    "serve_http",
    "square_region_set",
    "top_contributors",
    "__version__",
]
