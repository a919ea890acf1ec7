"""Deterministic synthetic corpora.

Two task families: `memorize`, where every token's label is decided by
the token itself (so a small model can reach perfect span F1 by rote),
and `future-dep`, where the label of the first token is decided by the
last token of the sentence, which only architectures with a view of the
future can get right.
"""

from .corpus import Sentence, Token
from .linalg import SeededRng, check_size

PERSON_WORDS = ["alice", "bruno", "carla", "dmitri", "elena", "farid"]
ORG_WORDS = ["acme", "globex", "initech", "umbrella"]
ORG_SECOND = ["corp", "group"]
LOC_WORDS = ["paris", "oslo", "kyoto", "lima"]
FILLER_WORDS = ["the", "met", "at", "in", "saw", "with", "old", "new",
                "went", "to", "and", "then"]

MEMORIZE_TYPES = ("LOC", "ORG", "PER")

FUTURE_AMBIGUOUS = "jordan"
FUTURE_FILLERS = ["spoke", "again", "later", "quietly", "briefly", "once"]
FUTURE_CUES = {"company": "B-ORG", "herself": "B-PER"}
FUTURE_LENGTH = 5


def memorize_corpus(size=50, seed=1):
    """Tagged sentences (BIO2) whose labels are a pure function of the
    surface form; 3 entity types, occasional two-token ORG mentions."""
    check_size("size", size, 1)
    rng = SeededRng(seed)
    sentences = []
    for _ in range(size):
        tokens = []
        n_slots = 3 + rng.randint(4)  # 3..6 slots, entities may add a token
        for _ in range(n_slots):
            roll = rng.randint(10)
            if roll < 4:
                tokens.append(Token(FILLER_WORDS[rng.randint(len(FILLER_WORDS))], "O"))
            elif roll < 6:
                tokens.append(Token(PERSON_WORDS[rng.randint(len(PERSON_WORDS))], "B-PER"))
            elif roll < 8:
                first = ORG_WORDS[rng.randint(len(ORG_WORDS))]
                tokens.append(Token(first, "B-ORG"))
                if rng.randint(2) == 0:
                    tokens.append(Token(ORG_SECOND[rng.randint(len(ORG_SECOND))], "I-ORG"))
            else:
                tokens.append(Token(LOC_WORDS[rng.randint(len(LOC_WORDS))], "B-LOC"))
        sentences.append(Sentence(tokens))
    return sentences


def future_dep_corpus(size=40, seed=1):
    """Minimal pairs: two sentences identical except for the final cue
    word, which alone decides the tag of the first token.

    Every sentence has exactly FUTURE_LENGTH tokens, so with v_c = 1 the
    first position's input window never reaches the cue.
    """
    if check_size("size", size, 2) % 2:
        raise ValueError("size must be even, got %d" % size)
    rng = SeededRng(seed)
    sentences = []
    for _ in range(size // 2):
        middle = [FUTURE_FILLERS[rng.randint(len(FUTURE_FILLERS))]
                  for _ in range(FUTURE_LENGTH - 2)]
        for cue, first_tag in sorted(FUTURE_CUES.items()):
            tokens = [Token(FUTURE_AMBIGUOUS, first_tag)]
            tokens += [Token(w, "O") for w in middle]
            tokens.append(Token(cue, "O"))
            sentences.append(Sentence(tokens))
    return sentences
