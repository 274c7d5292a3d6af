//! AST node types for the lossless parser.
//!
//! Every node carries a [`Span`] — a half-open range of **token indexes**
//! into the file's full token stream (comments included). Children own
//! disjoint sub-ranges of their parent's span; tokens of the parent not
//! covered by any child (keywords, punctuation, attributes, comments) stay
//! "loose" inside the parent. That representation is lossless by
//! construction: re-emitting a node means walking its span and descending
//! into children exactly where their spans begin, which must reproduce the
//! token stream verbatim. `parser::reemit` does that walk and the
//! round-trip selftest pins it against every workspace file.

/// Half-open token-index range `[lo, hi)` into a file's token stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// First token index of the node.
    pub lo: usize,
    /// One past the last token index of the node.
    pub hi: usize,
}

/// A parsed source file: the root of the AST.
#[derive(Debug)]
pub struct File {
    /// Span covering every token in the file.
    pub span: Span,
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// One item (`fn`, `mod`, `impl`, `struct`, …) with its covering span.
#[derive(Debug)]
pub struct Item {
    /// Tokens of the whole item, qualifiers included.
    pub span: Span,
    /// 1-based line of the item's first token.
    pub line: u32,
    /// `pub` without a restriction (`pub(crate)` does not count).
    pub is_pub: bool,
    /// What the item is, with kind-specific children.
    pub kind: ItemKind,
}

/// Item discriminant. Only the shapes the rules consume are modelled
/// precisely; everything else is [`ItemKind::Other`] (span-only, still
/// lossless).
#[derive(Debug)]
pub enum ItemKind {
    /// `fn name(…) -> … { … }` or a bodiless trait signature.
    Fn(FnItem),
    /// `mod name { items }` (outline `mod name;` is `Other`).
    Mod {
        /// Module name.
        name: String,
        /// Items inside the braces.
        items: Vec<Item>,
    },
    /// `impl [Trait for] Type { items }`.
    Impl {
        /// Last path segment of the self type (`Cache`, `PointBlock`, …).
        self_ty: String,
        /// Items inside the braces.
        items: Vec<Item>,
    },
    /// `trait Name { items }` — default methods live in `items`.
    Trait {
        /// Trait name.
        name: String,
        /// Associated items (signatures and default bodies).
        items: Vec<Item>,
    },
    /// Any other item (`struct`, `enum`, `use`, `const`, `static`, `type`,
    /// `macro_rules!`, outline `mod`, item-position macro invocations, …).
    Other,
}

/// A function item.
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Body block, `None` for bodiless trait signatures.
    pub body: Option<Block>,
}

/// A `{ … }` block. Nested braces become child [`Block`]s; nested `fn`
/// items inside the block become child [`Item`]s (so a parent function's
/// event extraction can exclude them).
#[derive(Debug)]
pub struct Block {
    /// Tokens from the opening `{` through the closing `}` inclusive.
    pub span: Span,
    /// Nested blocks and items, in source order.
    pub children: Vec<BlockChild>,
}

/// One structured child of a [`Block`].
#[derive(Debug)]
pub enum BlockChild {
    /// A nested `{ … }` (control flow, struct literal, match arm, closure
    /// body — the parser does not distinguish; it only needs nesting).
    Block(Block),
    /// A nested item (in practice: `fn` defined inside a function body).
    Item(Item),
}

impl File {
    /// Depth-first walk over all items, outermost first, handing each
    /// visitor call the chain of enclosing module names and the enclosing
    /// `impl`/`trait` type name (empty for free items).
    pub fn walk_items<'a>(&'a self, visit: &mut dyn FnMut(&'a Item, &[String], &str)) {
        fn go<'a>(
            items: &'a [Item],
            mods: &mut Vec<String>,
            owner: &str,
            visit: &mut dyn FnMut(&'a Item, &[String], &str),
        ) {
            for it in items {
                visit(it, mods, owner);
                match &it.kind {
                    ItemKind::Mod { name, items } => {
                        mods.push(name.clone());
                        go(items, mods, owner, visit);
                        mods.pop();
                    }
                    ItemKind::Impl { self_ty, items } => go(items, mods, self_ty, visit),
                    ItemKind::Trait { name, items } => go(items, mods, name, visit),
                    ItemKind::Fn(f) => {
                        if let Some(body) = &f.body {
                            walk_block_items(body, mods, owner, visit);
                        }
                    }
                    ItemKind::Other => {}
                }
            }
        }
        fn walk_block_items<'a>(
            b: &'a Block,
            mods: &mut Vec<String>,
            owner: &str,
            visit: &mut dyn FnMut(&'a Item, &[String], &str),
        ) {
            for c in &b.children {
                match c {
                    BlockChild::Item(it) => {
                        visit(it, mods, owner);
                        if let ItemKind::Fn(f) = &it.kind {
                            if let Some(body) = &f.body {
                                walk_block_items(body, mods, owner, visit);
                            }
                        }
                    }
                    BlockChild::Block(inner) => walk_block_items(inner, mods, owner, visit),
                }
            }
        }
        go(&self.items, &mut Vec::new(), "", visit)
    }
}
