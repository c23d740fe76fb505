"""secflow: security-aware workflow execution over simulated multi-cloud
deployments — synthetic telemetry generation, attack detection, severity
assessment, cost-based and learned adaptation, and trust-aware scheduling."""

from .model import (
    ActionKind,
    ActionParams,
    AttackSpec,
    AttackType,
    ControlEdge,
    DataEdge,
    MultiCloud,
    SchedulingPlan,
    SecurityVector,
    Service,
    Severity,
    Task,
    TenantConfig,
    Workflow,
    builtin_action_properties,
    builtin_attack_catalog,
    parse_multicloud,
    parse_workflow,
    serialize_multicloud,
    serialize_workflow,
)
from .scoring import adaptation_cost, attack_score, mitigation_score, normalize
from .scheduling import TrustRepository, eligible_services, schedule
from .datagen import Dataset, DatasetKind, generate, split
from .detection import evaluate, train_linear, train_random_forest
from .severity import SeverityModel, fit_severity
from .rl import QTable, RLConfig, RewardWeights, train
from .decision import AttackEvent, select_action
from .sim import (
    Experiment,
    RunResult,
    WorkflowClass,
    generate_multicloud,
    generate_workflow_class,
    run_experiment,
    run_instance,
)

__version__ = "0.1.0"
