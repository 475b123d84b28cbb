"""Clinical dataset: patients, visits, diagnoses, prescriptions.

Generative process:

* patients have an age-correlated latent frailty;
* a subset of patients carries a *chronic condition*; chronic patients
  visit much more often, and each of their visits records one of the
  chronic diagnosis codes with high probability;
* visit severity = frailty + chronic bump + noise; severe visits lead
  to more prescriptions;
* future readmission (a visit within 60 days) is driven mostly by the
  chronic flag — which is **never stored on the patient row**.  It is
  only observable via diagnosis codes attached to past visits, i.e. a
  two-hop path (patient → visits → diagnoses).

The within-table features (age, sex) carry a weak signal, so tabular
baselines without the two-hop diagnosis aggregates land well below the
GNN.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import assemble, python_round
from repro.relational import ColumnSpec, Database, DType, ForeignKey, TableSchema

__all__ = ["make_clinical"]

_DAY = 86400
_CHRONIC_CODES = ["E11", "I10", "J44", "N18"]
_ACUTE_CODES = ["J06", "A09", "S93", "H66", "L03", "R51"]
_DRUGS = ["metformin", "lisinopril", "salbutamol", "amoxicillin", "ibuprofen", "omeprazole"]


def make_clinical(
    num_patients: int = 250,
    span_days: int = 540,
    seed: int = 0,
) -> Database:
    """Build the clinical database."""
    rng = np.random.default_rng(seed)
    span = span_days * _DAY

    age = np.clip(rng.normal(55, 18, num_patients), 18, 95)
    sex = rng.choice(["f", "m"], size=num_patients)
    frailty = 0.02 * (age - 55) + rng.normal(0, 0.6, num_patients)
    chronic = rng.random(num_patients) < (0.25 + 0.15 * (age > 65))
    # Visit rate per day: chronic patients visit ~4x as often.
    visit_rate = np.exp(rng.normal(np.log(0.01), 0.5, num_patients)) * np.where(chronic, 4.0, 1.0)

    gap = (1.0 / (visit_rate / _DAY)).tolist()  # mean seconds between visits
    level = (frailty + np.where(chronic, 0.8, 0.0)).tolist()  # severity before noise
    is_chronic = chronic.tolist()

    # One pass in the generator's draw order.  Severity sets the
    # prescription draw's rate, so it is computed per visit, in python
    # floats: the same IEEE doubles as numpy float64 scalars.
    exponential, integers, normal, poisson, random = (
        rng.exponential, rng.integers, rng.normal, rng.poisson, rng.random
    )
    visit_patient, severities, visit_ts, codes, prescribed, drugs = [], [], [], [], [], []
    for patient in range(num_patients):
        t = float(integers(0, 30 * _DAY))
        while True:
            t += exponential(gap[patient])
            if t >= span:
                break
            severity = min(max(level[patient] + normal(0, 0.5), -2.0), 4.0)
            visit_patient.append(patient)
            severities.append(severity)
            visit_ts.append(int(t))
            # Diagnoses: chronic patients usually record their chronic code.
            if is_chronic[patient] and random() < 0.8:
                codes.append(_CHRONIC_CODES[patient % len(_CHRONIC_CODES)])
            else:
                codes.append(_ACUTE_CODES[integers(0, len(_ACUTE_CODES))])
            # Prescriptions scale with severity.
            num_drugs = poisson(max(severity, 0.0) + 0.3)
            prescribed.append(num_drugs)
            for _ in range(num_drugs):
                drugs.append(integers(0, len(_DRUGS)))

    visit_ids = np.arange(len(visit_ts))
    visit_ts = np.array(visit_ts, dtype=np.int64)
    rx_visits = np.repeat(visit_ids, np.array(prescribed, dtype=np.int64))

    return assemble("clinical", [
        (
            TableSchema(
                "patients",
                [
                    ColumnSpec("id", DType.INT64),
                    ColumnSpec("age", DType.FLOAT64),
                    ColumnSpec("sex", DType.STRING),
                ],
                primary_key="id",
            ),
            {
                "id": np.arange(num_patients),
                "age": np.round(age, 1),
                "sex": sex.astype(object),
            },
        ),
        (
            TableSchema(
                "visits",
                [
                    ColumnSpec("id", DType.INT64),
                    ColumnSpec("patient_id", DType.INT64),
                    ColumnSpec("severity", DType.FLOAT64),
                    ColumnSpec("ts", DType.TIMESTAMP),
                ],
                primary_key="id",
                foreign_keys=[ForeignKey("patient_id", "patients", "id")],
                time_column="ts",
            ),
            {
                "id": visit_ids,
                "patient_id": np.array(visit_patient, dtype=np.int64),
                "severity": python_round(np.array(severities), 2),
                "ts": visit_ts,
            },
        ),
        (
            TableSchema(
                "diagnoses",
                [
                    ColumnSpec("id", DType.INT64),
                    ColumnSpec("visit_id", DType.INT64),
                    ColumnSpec("code", DType.STRING),
                    ColumnSpec("ts", DType.TIMESTAMP),
                ],
                primary_key="id",
                foreign_keys=[ForeignKey("visit_id", "visits", "id")],
                time_column="ts",
            ),
            {"id": visit_ids, "visit_id": visit_ids, "code": np.array(codes, dtype=object), "ts": visit_ts},
        ),
        (
            TableSchema(
                "prescriptions",
                [
                    ColumnSpec("id", DType.INT64),
                    ColumnSpec("visit_id", DType.INT64),
                    ColumnSpec("drug", DType.STRING),
                    ColumnSpec("ts", DType.TIMESTAMP),
                ],
                primary_key="id",
                foreign_keys=[ForeignKey("visit_id", "visits", "id")],
                time_column="ts",
            ),
            {
                "id": np.arange(len(rx_visits)),
                "visit_id": rx_visits,
                "drug": np.array(_DRUGS, dtype=object)[np.array(drugs, dtype=np.int64)],
                "ts": visit_ts[rx_visits],
            },
        ),
    ])
