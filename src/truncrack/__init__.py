"""truncrack: a truncated-modular-multiplication key exchange and the
exact rank-2 lattice attack that recovers its secrets."""

from .attack import Attacker, AttackResult
from .errors import (
    ConstraintViolated,
    DegenerateInput,
    IterationCapExceeded,
    NoCandidates,
    OracleTooLarge,
    SearchSpaceExceeded,
    SingularBasis,
    ToolkitError,
)
from .harness import (
    TrialConfig,
    TrialRecord,
    brute_force_preimages,
    format_csv,
    run_trials,
    write_csv,
)
from .lattice2d import (
    box_frame,
    gauss_reduce,
    is_reduced,
    nearest_lattice_point,
    rect_search,
    round_half_to_zero,
    solution_basis,
    solve_coeffs,
    truncate_decimal,
)
from .protocol import (
    ExchangeTranscript,
    ProtocolParams,
    classify,
    derive_key,
    dump_params,
    exchange,
    gen_params,
    load_params,
    parse_params,
    save_params,
    shared_key,
    trunc_f,
    validate_params,
)

__version__ = "0.1.0"
