"""Seeded inputs for the benchmark workloads, each with its planted outcome.

The program under test only ever receives the files written here.  Every
question's fate (outcome kind, subset, drop reason, hybrid pick, whether its
completeness variants pass the similarity filter and the re-trace) is decided
here first and returned as the expected record; ``checks.py`` recounts the
program's outputs against it.

Program functions are used only to *address* the planted answers (context
fingerprints for scripted readers, rendered prompts for the fake HTTP
session, truncated texts for the completeness variants), the same way the
test suite's WorldBuilder does.  Expected outcomes never come from them.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from pathlib import Path

from ctxtrace import analysis, pipeline, textnorm
from ctxtrace.backends import BM25_STOPWORDS, context_fingerprint

OUTCOME_SHARES = {
    "AIG": 0.30, "AIR": 0.30, "parametric": 0.08, "both": 0.06, "neither": 0.06,
    "abstained_gen": 0.05, "abstained_ret": 0.05, "not_in_gen": 0.05, "not_in_ret": 0.05,
}
PICK_SHARES = {"gen": 0.40, "ret": 0.35, "llm": 0.10, "other": 0.15}
UNMATCHED_SHARE = 0.10   # live samples whose truncations fail the similarity filter
TRUNC_FAIL_SHARE = 0.05  # matched samples whose trunc variant re-reads as an abstention
ABSTAIN = "unknown"
FUNCTION_WORDS = ("the", "of", "and", "a", "in", "to", "was", "by", "with", "for", "on", "at")
SYLLABLES = ("ka", "lo", "mi", "ren", "tor", "sa", "vel", "du", "pan", "ri", "go",
             "the", "mun", "bra", "ist", "el", "dor", "fa", "lin", "qua")

BM25_HEAD = ("the", "of", "and", "to", "in", "a", "is", "was", "for", "on", "by", "with")
BM25_QUERY_UNIQUE = 3     # planted rare tokens per query, each only in its target doc
BM25_UNIQUE_TF = 3        # occurrences of each rare token in the target doc
BM25_QUERY_ZIPF = 7       # Zipfian words per query, drawn from the common head
BM25_QUERY_RANKS = 500    # head size the Zipfian query words come from
BM25_VOCAB = 20000
BM25_ZIPF_S = 1.0


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def quota(rng: random.Random, n: int, shares: dict[str, float]) -> list[str]:
    """Exactly floor(share * n) of each kind (remainder to the first), shuffled."""
    kinds = list(shares)
    counts = {k: int(shares[k] * n) for k in kinds}
    counts[kinds[0]] += n - sum(counts.values())
    labels = [k for k in kinds for _ in range(counts[k])]
    rng.shuffle(labels)
    return labels


def pseudo_vocab(rng: random.Random, size: int) -> list[str]:
    """Distinct lowercase pseudo-words of 4+ letters, none an abbreviation."""
    words: set[str] = set()
    while len(words) < size:
        word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))
        if len(word) >= 4:
            words.add(word)
    return sorted(words)


class Filler:
    """Sentences of pseudo-words with articles, commas and capitals, so the
    text normalizer and sentence splitter do their usual work."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.vocab = pseudo_vocab(rng, 3000)

    def sentence(self, k: int) -> str:
        rng = self.rng
        words = [rng.choice(self.vocab) if rng.random() < 0.75 else rng.choice(FUNCTION_WORDS)
                 for _ in range(k)]
        words[0] = words[0].capitalize()
        if k > 6:
            words[k // 2] += ","
        return " ".join(words) + "."

    def text(self, n_words: int, lead: str = "", lead_words: int = 0) -> str:
        """A text of exactly *n_words* words, opening with *lead*."""
        parts = [lead] if lead else []
        left = n_words - lead_words
        while left > 0:
            k = min(left, self.rng.randint(8, 14))
            parts.append(self.sentence(k))
            left -= k
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Scripted and HTTP worlds: the full chain with nine planted outcome kinds.

def build_qa_world(root: Path, rng: random.Random, n: int, mode: str) -> dict:
    """Write questions, gold passages and either script tables (mode
    "scripted") or a prompt->reply table (mode "http") under *root*."""
    filler = Filler(rng)
    prompts = pipeline.PromptSet()
    outcomes = quota(rng, n, OUTCOME_SHARES)
    qids = [f"q{i:06d}" for i in range(n)]
    live = [q for q, o in zip(qids, outcomes) if o in ("AIG", "AIR")]
    picks = dict(zip(live, quota(rng, len(live), PICK_SHARES)))
    unmatched = set(rng.sample(live, int(UNMATCHED_SHARE * len(live))))

    questions, gold_rows, gen_rows = [], [], []
    reader: dict[tuple, str] = {}   # scripted: (qid, mode, fingerprint) -> answer
    table: dict[str, str] = {}      # http: prompt -> reply
    # http: the first attempt of these prompts gets a 503, so the retry path
    # runs with its real backoff.  One generation prompt (prepare) and one
    # retrieved-context read (trace), each a quarter into its stage, so the
    # backoff overlaps the other worker's calls the same way at every seed.
    fail_first: set[str] = set()
    expected: dict[str, dict] = {}

    def read_single(qid: str, question: str, text: str, answer: str) -> None:
        if mode == "scripted":
            put(reader, (qid, "single_context", context_fingerprint(text)), answer)
        else:
            put(table, pipeline.render_template(prompts.reading, contexts=text,
                                                question=question), answer)

    def read_hybrid(qid: str, question: str, texts: list[tuple[str, str]], answer: str) -> None:
        if mode == "scripted":
            put(reader, (qid, "hybrid", None), answer)
            return
        for pair in texts:  # both presentation orders
            block = pipeline.CONTEXT_JOIN.join(pair)
            put(table, pipeline.render_template(prompts.reading, contexts=block,
                                                question=question), answer)

    def generation(qid: str, question: str, target: int | None, text: str) -> None:
        if mode == "scripted":
            gen_rows.append({"question_id": qid, "target_words": target, "text": text})
        elif target is None:
            put(table, pipeline.render_template(prompts.generation_unconstrained,
                                                question=question), text)
        else:
            prompt = pipeline.render_template(prompts.generation, question=question, n=target)
            put(table, prompt, text)
            if qid == qids[n // 4] and target == pipeline.DEFAULT_LENGTH_CANDIDATES[0]:
                fail_first.add(prompt)

    for qid, outcome in zip(qids, outcomes):
        gold, wrong, decoy = f"g{qid}", f"w{qid}", f"d{qid}"
        closed, stray, missing = f"c{qid}", f"s{qid}", f"m{qid}"
        gen_entity = gold if outcome in ("AIG", "both", "parametric") else wrong
        ret_entity = gold if outcome in ("AIR", "both") else decoy
        gen_ans = {"AIG": gold, "both": gold, "parametric": gold,
                   "abstained_gen": ABSTAIN, "not_in_gen": missing}.get(outcome, wrong)
        ret_ans = {"AIR": gold, "both": gold,
                   "abstained_ret": ABSTAIN, "not_in_ret": missing}.get(outcome, decoy)
        if outcome == "parametric":
            closed = gen_ans
        question = f"Who settled the matter of {qid}?"
        questions.append({"id": qid, "question": question, "answers": [gold]})

        title = f"Record {qid}"
        body_words = rng.randint(76, 116)
        ledger = (f"The ledger for {qid} lists {ret_entity} beside the seal, and the "
                  f"margin repeats {ret_entity} in a later hand.")
        body = filler.text(body_words, ledger, 18)
        rendered = pipeline.render_passage(title, body)
        rendered_words = body_words + 4
        if textnorm.word_count(rendered) != rendered_words:
            raise RuntimeError(f"generator miscounted the passage words of {qid}")
        gold_rows.append({"question_id": qid, "doc_id": f"doc-{qid}", "title": title,
                          "body": body})

        # The lead sentence carries every question word the texts share, so
        # sentence-Jaccard similarity is the same for any text opening with it.
        lead = f"One account of {qid} concludes that {gen_entity} settled the matter."
        gen_texts = {}
        for target in pipeline.DEFAULT_LENGTH_CANDIDATES:
            gen_texts[target] = filler.text(target, lead, 10)
            generation(qid, question, target, gen_texts[target])
        chosen = min(pipeline.DEFAULT_LENGTH_CANDIDATES,
                     key=lambda t: (abs(t - rendered_words), t))
        gen_text = gen_texts[chosen]

        read_single(qid, question, gen_text, gen_ans)
        read_single(qid, question, rendered, ret_ans)
        if mode == "http" and qid == qids[n // 4]:
            fail_first.add(pipeline.render_template(prompts.reading, contexts=rendered,
                                                    question=question))
        if mode == "scripted":
            put(reader, (qid, "closed_book", None), closed)
        else:
            put(table, pipeline.render_template(prompts.closed_book, question=question),
                closed)

        record = {"outcome": outcome, "gen_target": chosen, "gen_sha": sha(gen_text),
                  "ret_sha": sha(rendered), "ret_words": rendered_words}
        expected[qid] = record
        if qid not in picks:
            continue

        pick = picks[qid]
        hybrid = {"gen": gen_ans, "ret": ret_ans, "llm": closed, "other": stray}[pick]
        read_hybrid(qid, question, [(gen_text, rendered), (rendered, gen_text)], hybrid)
        record["pick"] = pick

        matched = qid not in unmatched
        opening = lead if matched else (
            f"Another account names {gen_entity} as one who prevailed.")
        unconstrained = filler.text(rendered_words * 3 // 2, opening, 10 if matched else 8)
        generation(qid, question, None, unconstrained)
        record["matched"] = matched
        if not matched:
            continue
        cut = analysis.trunc(unconstrained, textnorm.word_count(rendered))
        s_cut = analysis.s_trunc(unconstrained, textnorm.word_count(rendered))
        # A scripted reader tells texts apart by fingerprint, which ignores
        # articles and punctuation, so two different cuts can share one answer.
        same = (context_fingerprint(cut) == context_fingerprint(s_cut) if mode == "scripted"
                else cut == s_cut)
        trunc_ok = same or rng.random() >= TRUNC_FAIL_SHARE / (1 - UNMATCHED_SHARE)
        read_single(qid, question, cut, gen_ans if trunc_ok else ABSTAIN)
        if not same:
            read_single(qid, question, s_cut, gen_ans)
        for variant_text in (cut, s_cut):
            read_hybrid(qid, question, [(variant_text, rendered), (rendered, variant_text)],
                        hybrid)
        record["trunc_ok"] = trunc_ok

    write_jsonl(root / "questions.jsonl", questions)
    write_jsonl(root / "gold.jsonl", gold_rows)
    if mode == "scripted":
        write_jsonl(root / "generation.jsonl", gen_rows)
        write_jsonl(root / "reader.jsonl", (
            {"question_id": q, "mode": m, "context_fingerprint": fp, "answer": a}
            for (q, m, fp), a in reader.items()))
    else:
        write_jsonl(root / "http_table.jsonl", (
            {"prompt": p, "reply": r, "fail_first": p in fail_first}
            for p, r in table.items()))
    return {"n": n, "questions": expected}


def put(table: dict, key, value) -> None:
    """Insert, refusing a key that would need two different answers."""
    if table.setdefault(key, value) != value:
        raise RuntimeError(f"conflicting planted answers for {key!r}")


# ---------------------------------------------------------------------------
# BM25 world: a Zipfian corpus where every query's top-1 document is certain.

def _idf(n_docs: int, df: int) -> float:
    return math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)


def _index_tokens(text: str) -> list[str]:
    return [w for w in text.split() if w not in BM25_STOPWORDS]


def build_bm25_world(root: Path, rng: random.Random, n_docs: int, n_queries: int) -> dict:
    """Write a corpus, questions and a generation script under *root*.

    Each query is seven Zipfian words from the common head plus three rare
    tokens that occur only in its target document.  The target's exact BM25
    score is checked to exceed the best score any other document could
    reach on the shared words, so the target is the certain top-1.
    """
    vocab = list(BM25_HEAD) + [w for w in pseudo_vocab(rng, BM25_VOCAB)
                               if w not in BM25_HEAD][:BM25_VOCAB - len(BM25_HEAD)]
    cum, total = [], 0.0
    for rank in range(1, len(vocab) + 1):
        total += 1.0 / rank ** BM25_ZIPF_S
        cum.append(total)
    head_cum = cum[:BM25_QUERY_RANKS]

    def zipf(k: int, head: bool = False) -> list[str]:
        weights = head_cum if head else cum
        return rng.choices(vocab[:len(weights)], cum_weights=weights, k=k)

    targets = rng.sample(range(n_docs), n_queries)
    target_of = {doc: q for q, doc in enumerate(targets)}
    docs, bodies = [], []
    for d in range(n_docs):
        length = rng.randint(85, 115)
        if d in target_of:
            q = target_of[d]
            rare = [f"u{q:05d}{c}" for c in "abc"[:BM25_QUERY_UNIQUE]]
            words = rare * BM25_UNIQUE_TF + zipf(length - BM25_QUERY_UNIQUE * BM25_UNIQUE_TF)
            rng.shuffle(words)
        else:
            words = zipf(length)
        doc_id = f"d{d:06d}"
        docs.append({"doc_id": doc_id, "title": f"Entry {doc_id}", "text": " ".join(words)})
        bodies.append(words)

    df: Counter[str] = Counter()
    doc_len = []
    for doc, words in zip(docs, bodies):
        toks = _index_tokens(f"entry {doc['doc_id']} " + " ".join(words))
        doc_len.append(len(toks))
        df.update(set(toks))
    avgdl = sum(doc_len) / n_docs
    k1, b = 1.2, 0.75

    questions, gen_rows, expected = [], [], {}
    for q, d in enumerate(targets):
        qid = f"b{q:06d}"
        rare = [f"u{q:05d}{c}" for c in "abc"[:BM25_QUERY_UNIQUE]]
        target_tf = Counter(_index_tokens(f"entry {docs[d]['doc_id']} " + docs[d]["text"]))
        norm = k1 * (1 - b + b * doc_len[d] / avgdl)
        while True:
            words = zipf(BM25_QUERY_ZIPF, head=True) + rare
            rng.shuffle(words)
            query = _index_tokens(" ".join(words))
            counts = Counter(query)
            shared = [t for t in counts if t not in rare]
            others_best = sum(counts[t] * _idf(n_docs, df[t]) * (k1 + 1) for t in shared)
            target_score = sum(counts[t] * _idf(n_docs, df[t]) * target_tf[t] * (k1 + 1)
                               / (target_tf[t] + norm) for t in counts if target_tf[t])
            if target_score > others_best * (1 + 1e-9) + 1e-9:
                break
        question = " ".join(words) + "?"
        questions.append({"id": qid, "question": question, "answers": [rare[0]]})
        rendered = pipeline.render_passage(docs[d]["title"], docs[d]["text"])
        rendered_words = len(docs[d]["text"].split()) + 4
        texts = {t: " ".join(zipf(t)) + "." for t in pipeline.DEFAULT_LENGTH_CANDIDATES}
        for t, text in texts.items():
            gen_rows.append({"question_id": qid, "target_words": t, "text": text})
        chosen = min(texts, key=lambda t: (abs(t - rendered_words), t))
        expected[qid] = {"doc_title": docs[d]["title"], "ret_sha": sha(rendered),
                         "ret_words": rendered_words, "gen_target": chosen,
                         "gen_sha": sha(texts[chosen])}

    write_jsonl(root / "corpus.jsonl", docs)
    write_jsonl(root / "questions.jsonl", questions)
    write_jsonl(root / "generation.jsonl", gen_rows)
    write_jsonl(root / "reader.jsonl", [])
    return {"n": n_queries, "questions": expected}
