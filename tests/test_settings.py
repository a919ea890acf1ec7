"""One bounds rule for every size and rate of the library, in one wording
that starts with the field's name: a size is an integer, not a bool, at
or above its floor; a rate is a real number, not a bool, finite and
above 0.  linalg.check_size and linalg.check_rate state the rule; these
tests hold each owner of a setting to it."""

import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rnntagger.architectures import ModelSpec
from rnntagger.corpus import Vocabulary, vocab_from_counts
from rnntagger.model import Model
from rnntagger.pretrain import EmbedConfig
from rnntagger.representation import EmbeddingTable, FeatureConfig
from rnntagger.synth import future_dep_corpus, memorize_corpus
from rnntagger.tagging import BIO2, make_tagset
from rnntagger.training import TrainConfig


def spec(**fields):
    return ModelSpec(**{"arch": "basic", "n_in": 1, "hidden": 1, "n_tags": 1,
                        "decoder_cell": "ELMAN", **fields})


def table(dim):
    """A table whose matrix is as wide as dim at its floor, 1."""
    return EmbeddingTable(Vocabulary.of(["a"]), dim, np.zeros((3, 1)))


def model(v_c):
    """A model whose parts agree at v_c 0, the floor."""
    tagset = make_tagset(["PER"], BIO2)
    return Model(spec=spec(n_in=FeatureConfig().input_width(1, 0), n_tags=len(tagset)),
                 params={}, table=table(1), fconf=FeatureConfig(), tagset=tagset,
                 scheme=BIO2, v_c=v_c)


def size(owner, field, floor, build=None):
    """A size case: build(value), by default owner(**{field: value})."""
    build = build or (lambda value: owner(**{field: value}))
    return pytest.param(field, floor, build, id="%s.%s" % (owner.__name__, field))


def rate(owner, field):
    return pytest.param(field, lambda value: owner(**{field: value}),
                        id="%s.%s" % (owner.__name__, field))


SIZES = [size(ModelSpec, name, floor, lambda value, name=name: spec(**{name: value}))
         for name, floor in (("n_in", 1), ("hidden", 1), ("n_tags", 1), ("mesnil_k", 0))]
SIZES += [size(TrainConfig, name, floor)
          for name, floor in (("v_d", 0), ("v_c", 0), ("hidden", 1), ("epochs", 0),
                              ("dev_eval_every", 1), ("seed", 0))]
SIZES += [size(EmbedConfig, name, floor)
          for name, floor in (("dim", 1), ("window", 1), ("negatives", 1), ("min_count", 1),
                              ("epochs", 0), ("seed", 0))]
SIZES += [
    size(Model, "v_c", 0, model),
    size(EmbeddingTable, "embedding.dim", 1, table),
    size(memorize_corpus, "size", 1),
    size(future_dep_corpus, "size", 2),
    size(vocab_from_counts, "min_count", 1,
         lambda value: vocab_from_counts(Counter({"a": 1}), min_count=value)),
]
RATES = [rate(TrainConfig, name) for name in ("learning_rate", "clip_threshold")]
RATES += [rate(EmbedConfig, name) for name in ("subsample", "learning_rate")]


def not_a_size(floor):
    return st.one_of(st.booleans(), st.floats(), st.just(1.0), st.just(float(floor)),
                     st.integers(max_value=floor - 1))


NOT_A_RATE = st.one_of(st.booleans(), st.integers(max_value=0), st.floats(max_value=0.0),
                       st.sampled_from([math.nan, math.inf, -math.inf]))


@pytest.mark.parametrize("field,floor,build", SIZES)
def test_a_size_is_an_integer_at_or_above_its_floor(field, floor, build):
    build(floor)

    @given(not_a_size(floor))
    @example(True)
    @example(1.0)
    @example(floor - 1)
    def refused(value):
        wording = "%s must be an integer >= %d, got %r" % (field, floor, value)
        with pytest.raises(ValueError, match="^" + re.escape(wording) + "$"):
            build(value)

    refused()


@pytest.mark.parametrize("field,build", RATES)
def test_a_rate_is_finite_and_above_zero(field, build):
    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def accepted(value):
        build(value)

    @given(NOT_A_RATE)
    @example(True)
    @example(0)
    @example(-1.0)
    @example(math.nan)
    @example(math.inf)
    @example(-math.inf)
    def refused(value):
        wording = "%s must be finite and > 0, got %r" % (field, value)
        with pytest.raises(ValueError, match="^" + re.escape(wording) + "$"):
            build(value)

    accepted()
    refused()
