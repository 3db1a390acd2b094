"""Corra: correlation-aware column compression (reproduction).

A Python reproduction of *"Corra: Correlation-Aware Column Compression"*
(Liu, Stoian, van Renen, Kipf; VLDB 2024 / arXiv:2403.17229).  The library
provides:

* the three horizontal encoding schemes of the paper — non-hierarchical
  diff-encoding, hierarchical encoding, and multi-reference encoding with an
  outlier region (:mod:`repro.core`);
* the single-column encoding substrate they are compared against
  (:mod:`repro.encodings`);
* a block-based columnar storage layer with per-block zone maps, a
  single-file ``.corra`` table format served out-of-core through a
  byte-budgeted block cache, and a query engine with a structured predicate
  IR, statistics-driven scan pruning, lazy logical plans and per-block
  parallelism on one worker pool (:mod:`repro.storage`, :mod:`repro.query`);
* synthetic stand-ins for the paper's four datasets (:mod:`repro.datasets`);
* baselines, including the independent C3 system (:mod:`repro.baselines`).

Quickstart::

    from repro import CompressionPlan, TableCompressor, TpchLineitemGenerator

    table = TpchLineitemGenerator().generate_dates_only(100_000)
    plan = (CompressionPlan.builder(table.schema)
            .diff_encode("l_receiptdate", reference="l_shipdate")
            .diff_encode("l_commitdate", reference="l_shipdate")
            .build())
    relation = TableCompressor(plan).compress(table)
    print(relation.column_size("l_receiptdate"))

Querying uses the predicate IR; blocks whose zone maps rule out a match are
skipped without decoding, and :class:`~repro.query.ScanMetrics` reports how
much work that saved::

    from repro import Between

    query = relation.query().where(Between("l_shipdate", 9_000, 9_030))
    n = query.count()
    print(n, query.last_metrics.describe())
"""

from .baselines import C3Selector, SingleColumnBaseline, UncompressedBaseline
from .bitpack import BitPackedArray, pack, required_bits, unpack
from .core import (
    ArithmeticRule,
    ColumnPlan,
    CompressionPlan,
    CorrelationDetector,
    DiffEncodedColumn,
    DiffEncodingConfiguration,
    DiffEncodingOptimizer,
    HierarchicalEncodedColumn,
    HierarchicalEncoding,
    MultiReferenceConfig,
    MultiReferenceEncodedColumn,
    MultiReferenceEncoding,
    NonHierarchicalEncoding,
    OutlierStore,
    PlanBuilder,
    ReferenceGroup,
    TableCompressor,
)
from .datasets import (
    DmvGenerator,
    LdbcMessageGenerator,
    TaxiGenerator,
    TpchLineitemGenerator,
    available_datasets,
    dataset_by_name,
    taxi_multi_reference_config,
)
from .dtypes import BOOLEAN, DATE, DECIMAL, INT32, INT64, STRING, TIMESTAMP, DataType
from .encodings import (
    BestOfSelector,
    DictionaryEncoding,
    ForBitPackEncoding,
    PlainEncoding,
)
from .errors import (
    ConfigurationError,
    CorraError,
    DecodingError,
    EncodingError,
    SchemaError,
    SerializationError,
    UnknownColumnError,
    UnknownEncodingError,
    ValidationError,
)
from .query import (
    And,
    Between,
    Eq,
    In,
    Or,
    Predicate,
    ScanMetrics,
    ScanPlanner,
    SelectionVector,
    generate_selection_vectors,
    materialize_columns,
)
from .storage import (
    BlockCache,
    BlockStatistics,
    Catalog,
    ColumnSpec,
    ColumnStatistics,
    CompressedBlock,
    DiskRelation,
    IOMetrics,
    Relation,
    Schema,
    Table,
    TableReader,
    TableWriter,
    deserialize_block,
    open_table,
    serialize_block,
    write_table,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # bitpack
    "BitPackedArray", "pack", "unpack", "required_bits",
    # types
    "DataType", "INT32", "INT64", "DATE", "TIMESTAMP", "DECIMAL", "STRING", "BOOLEAN",
    # errors
    "CorraError", "EncodingError", "DecodingError", "SchemaError",
    "UnknownColumnError", "UnknownEncodingError", "ValidationError",
    "ConfigurationError", "SerializationError",
    # encodings
    "PlainEncoding", "ForBitPackEncoding", "DictionaryEncoding", "BestOfSelector",
    # storage
    "Schema", "ColumnSpec", "Table", "CompressedBlock", "Relation",
    "BlockStatistics", "ColumnStatistics",
    "serialize_block", "deserialize_block",
    "DiskRelation", "BlockCache", "IOMetrics", "Catalog",
    "TableWriter", "TableReader", "write_table", "open_table",
    # core
    "NonHierarchicalEncoding", "DiffEncodedColumn", "HierarchicalEncoding",
    "HierarchicalEncodedColumn", "MultiReferenceEncoding",
    "MultiReferenceEncodedColumn", "MultiReferenceConfig", "ReferenceGroup",
    "ArithmeticRule", "OutlierStore", "DiffEncodingOptimizer",
    "DiffEncodingConfiguration", "CorrelationDetector", "CompressionPlan",
    "PlanBuilder", "ColumnPlan", "TableCompressor",
    # query
    "SelectionVector", "generate_selection_vectors", "materialize_columns",
    "Predicate",
    "Eq", "Between", "In", "And", "Or",
    "ScanMetrics", "ScanPlanner",
    # datasets
    "TpchLineitemGenerator", "LdbcMessageGenerator", "DmvGenerator",
    "TaxiGenerator", "taxi_multi_reference_config", "available_datasets",
    "dataset_by_name",
    # baselines
    "SingleColumnBaseline", "UncompressedBaseline", "C3Selector",
]
