"""Seeded synthetic inputs for the workloads.

Everything here depends only on NumPy and the standard library, and the
same seed always gives the same bytes. The program under test receives
these inputs through its public readers (`load_wav`, `read_emr_csv`).
"""

from __future__ import annotations

import csv
import wave
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
WINDOW_S = 10
WINDOW_SAMPLES = SAMPLE_RATE * WINDOW_S

TONE, NOISE = 0, 1


def tone_noise_window(rng, label: int, n: int = WINDOW_SAMPLES) -> np.ndarray:
    """One window drawn like the toy training clips: a 300-600 Hz tone with
    a faint noise floor (label 0), or uniform broadband noise (label 1)."""
    if label == TONE:
        freq = rng.uniform(300.0, 600.0)
        t = np.arange(n) / SAMPLE_RATE
        x = 0.5 * np.sin(2 * np.pi * freq * t) + 0.01 * rng.standard_normal(n)
    else:
        x = rng.uniform(-0.5, 0.5, n)
    return np.clip(x, -1.0, 1.0)


def balanced_labels(rng, n_windows: int) -> np.ndarray:
    labels = np.array([TONE, NOISE] * (n_windows // 2) + [TONE] * (n_windows % 2))
    return rng.permutation(labels)


def write_wav_pcm16(path, samples: np.ndarray) -> None:
    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.tobytes())


def stream_recording(seed: int, n_windows: int, path) -> np.ndarray:
    """Write a mono 16 kHz PCM16 WAV of n_windows 10 s windows, each purely
    tone or purely noise, aligned to the 10 s schedule. Returns the labels."""
    rng = np.random.default_rng([seed, 1])
    labels = balanced_labels(rng, n_windows)
    samples = np.concatenate([tone_noise_window(rng, int(lab)) for lab in labels])
    write_wav_pcm16(path, samples)
    return labels


def decode_window(seed: int, index: int) -> np.ndarray:
    """The index-th 10 s window of the decode_rene_s stream: tone or noise at
    a seeded gain, so windows differ but every one is valid audio."""
    rng = np.random.default_rng([seed, 2, index])
    gain = rng.uniform(0.3, 1.0)
    return gain * tone_noise_window(rng, int(rng.integers(2)))


# ------------------------------------------------------------------- EMR

# Diagnoses of the 920 recordings of the ICBHI 2017 respiratory sound
# database (Rocha et al., Physiol. Meas. 40 (2019) 035001): one row each.
DIAGNOSES = ("COPD", "Pneumonia", "Healthy", "URTI", "Bronchiectasis",
             "Bronchiolitis", "LRTI", "Asthma")
CLASS_ROWS = (793, 37, 35, 23, 16, 13, 2, 1)
# ICBHI's demographic columns. BMI is recorded for adults only, weight and
# height for children only, so the other group's cells are empty.
NUMERIC = ("age", "adult_bmi", "child_weight_kg", "child_height_cm")
ADULT_AGE = 18.0
# Planted demographics, invented so that the diagnoses are told apart by
# age and build: (share of children, adult age mean and sd, adult BMI mean
# and sd, child age range). Children's weight and height follow their age.
PROFILES = {
    "COPD": (0.0, 68.0, 6.0, 29.0, 2.5, None),
    "Pneumonia": (0.0, 80.0, 4.0, 19.0, 1.5, None),
    "Healthy": (0.5, 25.0, 3.0, 22.0, 1.5, (7.0, 9.0)),
    "URTI": (0.8, 40.0, 3.0, 25.0, 1.5, (10.0, 12.0)),
    "Bronchiectasis": (0.0, 50.0, 4.0, 21.0, 1.5, None),
    "Bronchiolitis": (1.0, 0.0, 0.0, 0.0, 0.0, (0.3, 1.5)),
    "LRTI": (1.0, 0.0, 0.0, 0.0, 0.0, (0.5, 1.5)),
    "Asthma": (0.0, 68.0, 5.0, 29.0, 2.5, None),
}
# The planted clusters: the infants (every Bronchiolitis and LRTI row, far
# below the school-age children in weight and height) and everyone else.
INFANT_DIAGNOSES = ("Bronchiolitis", "LRTI")
PLANTED_K = 2


def emr_table(seed: int, path):
    """Write an ICBHI-shaped table, one row per recording, and return each
    row's diagnosis index into DIAGNOSES.

    Columns: patient_id, sex, age, adult_bmi, child_weight_kg,
    child_height_cm, diagnosis. The diagnosis mix is ICBHI's. Each row is
    drawn as its own patient from its diagnosis's planted profile.
    """
    rng = np.random.default_rng([seed, 3])
    labels = np.repeat(np.arange(len(DIAGNOSES)), CLASS_ROWS)
    labels = labels[rng.permutation(len(labels))]
    values = np.full((len(labels), len(NUMERIC)), np.nan)
    for i, d in enumerate(labels):
        child_share, age_mu, age_sd, bmi_mu, bmi_sd, child_ages = \
            PROFILES[DIAGNOSES[d]]
        if rng.random() < child_share:
            age = rng.uniform(*child_ages)
            weight = (3.5 + 2.6 * age) * rng.lognormal(0.0, 0.1)
            height = (52.0 + 25.0 * age ** 0.6) * rng.normal(1.0, 0.03)
            values[i, [0, 2, 3]] = age, weight, height
        else:
            age = max(ADULT_AGE, rng.normal(age_mu, age_sd))
            values[i, [0, 1]] = age, rng.normal(bmi_mu, bmi_sd)
    sex = rng.choice(["F", "M"], size=len(labels))

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "sex", *NUMERIC, "diagnosis"])
        for i, d in enumerate(labels):
            cells = ["" if np.isnan(v) else f"{v:.2f}" for v in values[i]]
            writer.writerow([f"P{i:04d}", sex[i], *cells, DIAGNOSES[d]])
    return labels


def audio_probabilities(seed: int, truths, n_classes: int) -> np.ndarray:
    """Seeded stand-in for the audio model's per-row class probabilities:
    a softmax that favours the true class, right about three times in four."""
    rng = np.random.default_rng([seed, 4])
    logits = rng.standard_normal((len(truths), n_classes))
    logits[np.arange(len(truths)), truths] += 1.8
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def out_dir(root: Path) -> Path:
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    return out
