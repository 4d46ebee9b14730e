"""truncrack: a truncated-modular-multiplication key exchange and the
exact rank-2 lattice attack that recovers its secrets.

The root holds the protocol, the trial harness, Attacker and the errors
they raise; the lattice machinery is imported from truncrack.lattice2d."""

from .attack import Attacker, AttackResult
from .errors import (
    ConstraintViolated,
    InvalidArgument,
    OracleTooLarge,
    SearchSpaceExceeded,
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
