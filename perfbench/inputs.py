"""Seeded inputs for the `tracer run` benchmark: a corpus and a mock script.

Every claim has the same shape, so a workload changes one factor at a
time (embedding width, cache state, injected latency) and never the
amount of pipeline work per claim. Each claim carries ten evidence
sentences, shuffled by the seed:

* 2 irrelevant: the relevance check answers "No", nothing else runs;
* 2 presented: the presentation check answers "Yes" and the sentence
  embeds close to the claim (cosine 0.8), so refinement keeps it;
* 6 hidden: the presentation check answers "No" and the sentence embeds
  far from the claim (cosine 0.2), so refinement keeps it hidden. Two of
  them ("hidden-near") embed close to the first assumption (cosine 0.9)
  and the NLI check answers "Contradict"; the other four are orthogonal
  to every assumption and never reach the NLI check.

The mock answers are the same for every claim: six assumptions, the
last of which is not critical, and a re-assessment that moves the base
"True" verdict to "Half-True". Retrieval, NLI and re-assessment therefore
run on every claim, and the intent-only prompts and the assumption
embeddings repeat across claims, which is the reuse a cache can see.

Texts are tagged with role markers such as ``[irr]``; the mock script
matches rules and embeddings on those markers, so the script stays a few
kilobytes whatever the corpus size. The generator does not import the
program: the program receives only the files written here.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

N_CLAIMS = 200
N_ASSUMPTIONS = 6

# Evidence roles in the order they are generated (then shuffled).
ROLES = (
    ("irrelevant", "[irr]", 2),
    ("presented", "[pre]", 2),
    ("hidden-near", "[near]", 2),
    ("hidden-far", "[far]", 4),
)

_WORDS = (
    "budget county rate jobs wages housing permits schools transit clinic "
    "survey report audit figure quarter decade record district council grant "
    "tax fund revenue payroll index census ledger program contract vendor "
    "hospital nurses teachers students tuition loans prices rent fuel energy "
    "grid water farms harvest exports imports tariffs factory plant output "
    "crime arrests patrols courts prisons parole police response emergency "
    "roads bridges repairs potholes traffic fares riders stations delays "
    "pension benefits claims applicants waitlist shelter vouchers inspections "
    "violations fines licenses zoning parks trees pollution emissions rainfall "
    "flooding drought wildfire insurance premiums deductibles coverage enrollment"
).split()

_RATINGS = (("True", "True"), ("Half True", "Half-True"), ("False", "False"))


def _words(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n))


def _orthonormal_basis(rng: random.Random, dim: int, n: int) -> list[list[float]]:
    # Gram-Schmidt on Gaussian draws: a random orthonormal frame whose
    # pairwise cosines are exactly the ones constructed below.
    basis: list[list[float]] = []
    while len(basis) < n:
        v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        for b in basis:
            d = sum(x * y for x, y in zip(v, b))
            v = [x - d * y for x, y in zip(v, b)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-6:
            basis.append([x / norm for x in v])
    return basis


def _combine(*terms: tuple[float, list[float]]) -> list[float]:
    dim = len(terms[0][1])
    return [sum(weight * vector[i] for weight, vector in terms) for i in range(dim)]


def _vectors(rng: random.Random, dim: int) -> dict[str, list[float]]:
    e = _orthonormal_basis(rng, dim, 8)
    claim = e[0]
    return {
        "[clm]": claim,
        "[pre]": _combine((0.8, claim), (0.6, e[1])),
        "[near]": _combine((0.2, claim), (0.9, e[2]), (math.sqrt(0.15), e[3])),
        "[far]": _combine((0.2, claim), (math.sqrt(0.96), e[4])),
        "[asm-1]": e[2],
        "[asm-2]": e[5],
        "[asm-3]": e[6],
        "[asm-4]": e[7],
        "[asm-5]": _combine((math.sqrt(0.5), e[5]), (math.sqrt(0.5), e[6])),
        "[asm-6]": _combine((math.sqrt(0.5), e[6]), (math.sqrt(0.5), e[7])),
    }


def _mock_script(rng: random.Random, vectors: dict[str, list[float]]) -> dict:
    intent = f"The figures prove that the {_words(rng, 3)} policy is working."
    questions = " ".join(f"<Did the {_words(rng, 3)} change as well?>" for _ in range(3))
    assumptions = "||".join(
        f"<[asm-{i}] The {_words(rng, 4)} stayed stable during the period.>"
        for i in range(1, N_ASSUMPTIONS + 1)
    )
    rules = [
        {"template": "relevance", "contains": "[irr]", "response": "B"},
        {"template": "relevance", "response": "A"},
        {"template": "presentation", "contains": "[pre]", "response": "A"},
        {"template": "presentation", "response": "B"},
        {
            "template": "cot_verdict",
            "response": f"The record shows the {_words(rng, 4)} as stated.\nAnswer: A",
        },
        {
            "template": "intent_generation",
            "response": f"The claim cites the numbers as a success. <{intent}>",
        },
        {"template": "plausibility", "response": "1"},
        {"template": "implicity", "response": "1"},
        {"template": "sufficiency", "response": "1"},
        {"template": "readability", "response": "1"},
        {
            "template": "implicit_questions",
            "response": f"The success reading needs context. {questions}",
        },
        {
            "template": "assumptions",
            "response": f"Each question names a condition. {assumptions}",
        },
        {"template": "counterfactual", "contains": f"do(Y_{N_ASSUMPTIONS}", "response": "A"},
        {"template": "counterfactual", "response": "C"},
        {"template": "nli", "contains": "[near]", "response": "B"},
        {"template": "nli", "response": "C"},
        {"template": "reassessment", "response": "B"},
    ]
    embeddings = [
        {"contains": marker, "vector": vector}
        for marker, vector in vectors.items()
    ]
    return {"rules": rules, "embeddings": embeddings}


def _corpus(rng: random.Random, n_claims: int) -> tuple[list[dict], dict[str, dict[str, str]]]:
    records = []
    roles: dict[str, dict[str, str]] = {}
    for i in range(n_claims):
        claim_id = f"bench-{i:04d}"
        evidence = []
        for role, marker, count in ROLES:
            for _ in range(count):
                sentence = f"{marker} Item {i}.{len(evidence)}: the {_words(rng, rng.randint(10, 18))}."
                evidence.append((sentence, role))
        rng.shuffle(evidence)
        raw_rating, gold = rng.choice(_RATINGS)
        records.append(
            {
                "id": claim_id,
                "claim": f"[clm] Claim {i}: the {_words(rng, rng.randint(10, 16))} doubled.",
                "raw_rating": raw_rating,
                "gold_label": gold,
                "evidence": [sentence for sentence, _ in evidence],
                "ruling": ["Our ruling", f"The {_words(rng, 12)} tells only part of it."],
            }
        )
        roles[claim_id] = dict(evidence)
    return records, roles


def generate(seed: int, dim: int, out_dir: Path, n_claims: int = N_CLAIMS) -> dict[str, dict[str, str]]:
    """Write corpus.jsonl and mock.json for one seed and embedding width.

    Returns the role of every evidence sentence, by claim id, which the
    correctness check uses to resolve the committed reference. The same
    (seed, dim, n_claims) always gives byte-identical files, and the texts
    depend on the seed alone, so workloads of different widths share them.
    """
    rng = random.Random(seed)
    script = _mock_script(rng, _vectors(random.Random(f"{seed}:{dim}"), dim))
    records, roles = _corpus(rng, n_claims)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "corpus.jsonl").open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False))
            handle.write("\n")
    with (out_dir / "mock.json").open("w", encoding="utf-8") as handle:
        json.dump(script, handle, ensure_ascii=False)
        handle.write("\n")
    return roles
