"""The record types are immutable NamedTuples whose field annotations are
objects, not strings, and importing the package loads neither
dataclasses nor inspect."""

import copy
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from truncrack import ExchangeTranscript, ProtocolParams, TrialConfig, TrialRecord
from truncrack.attack import AttackInput, AttackResult
from truncrack.harness import CSV_COLUMNS

SRC = Path(__file__).resolve().parent.parent / "src"

# Each record with the repr that the earlier dataclass version printed.
RECORDS = [
    (
        ProtocolParams(l=13, m=14, p=22, q=5, r=2, z=6173),
        "ProtocolParams(l=13, m=14, p=22, q=5, r=2, z=6173)",
    ),
    (
        ExchangeTranscript(x=12345, y=12361, u=22131, v=25218, w_a=0, w_b=0, agree=True),
        "ExchangeTranscript(x=12345, y=12361, u=22131, v=25218, w_a=0, w_b=0, agree=True)",
    ),
    (
        TrialConfig(seed_base=13882, trials=1, l=13, m=14, q=5, r=2),
        "TrialConfig(seed_base=13882, trials=1, l=13, m=14, q=5, r=2, mode='attack')",
    ),
    (
        TrialRecord(seed=13882, l=13, m=14, p=22, q=5, r=2, agree=True),
        "TrialRecord(seed=13882, l=13, m=14, p=22, q=5, r=2, secret_recovered=False, "
        "preimage_found=False, key_matched=False, candidate_count=0, reduce_iterations=0, "
        "reduce_time_ns=0, search_time_ns=0, total_time_ns=0, error='', agree=True)",
    ),
    (
        AttackInput(z=6173, p=22, q=5, m=14, token=22131),
        "AttackInput(z=6173, p=22, q=5, m=14, token=22131)",
    ),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
class TestRecordIsValue:
    def test_equal_arguments_give_equal_records(self, record, text):
        again = type(record)(*record)
        assert again == record and hash(again) == hash(record)

    def test_immutable(self, record, text):
        field = next(iter(type(record).__annotations__))
        with pytest.raises(AttributeError):
            setattr(copy.copy(record), field, 0)  # the shared record stays as it is

    def test_repr_unchanged(self, record, text):
        assert repr(record) == text


def test_trial_record_fields_are_csv_columns():
    assert TrialRecord._fields == CSV_COLUMNS
    assert CSV_COLUMNS[-2:] == ("error", "agree")


@pytest.mark.parametrize("record_type", [type(r) for r, _ in RECORDS] + [AttackResult])
def test_field_annotations_are_objects(record_type):
    # typing compiles a string annotation into a ForwardRef at import.
    annotations = record_type.__annotations__.values()
    assert not any(isinstance(a, (str, typing.ForwardRef)) for a in annotations)


def test_agree_takes_part_in_equality():
    row = dict(seed=1, l=13, m=14, p=22, q=5, r=2)
    assert TrialRecord(**row, agree=True) != TrialRecord(**row, agree=False)


def test_import_loads_no_dataclasses_or_inspect():
    code = (
        "import truncrack.cli, sys; "
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == ""
