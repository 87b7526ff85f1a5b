"""Few-shot NER schemes over CoNLL corpora with a small trainable encoder."""

from .checkpoint import LINEAR, PROTOTYPE, Model, load, save
from .corpus import (
    LabelSet,
    TaggedCorpus,
    TokenSequence,
    convert_schema,
    corpus_stats,
    parse_conll,
    sample_fewshot,
    write_conll,
)
from .encoder import EncoderParams, encode, encode_backward, init_encoder
from .errors import DataError, NumericError
from .evaluation import (
    AggregateReport,
    EvalReport,
    Experiment,
    entity_f1,
    evaluate_model,
    predict_corpus,
    repeated_eval,
    support_prototypes,
)
from .heads import (
    LinearHead,
    PrototypeSet,
    build_multi_prototypes,
    build_prototypes,
    cross_entropy,
    linear_backward,
    linear_forward,
    multi_proto_score,
    proto_backward,
    proto_forward,
)
from .training import (
    Episode,
    TrainConfig,
    generate_soft_labels,
    pretrain_transfer,
    run_scheme,
    sample_episode,
    self_train,
    train_linear,
    train_prototype,
)

__version__ = "0.1.0"
