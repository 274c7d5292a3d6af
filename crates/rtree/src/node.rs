use std::sync::Arc;

use skycache_geom::Aabb;

/// A data entry stored at the leaf level.
#[derive(Clone, Debug)]
pub(crate) struct LeafEntry<T> {
    pub mbr: Aabb,
    pub value: T,
}

/// A child pointer stored at inner levels. The child is shared
/// (`Arc`), so cloning an entry — and with it a node, and with the root
/// a whole tree — copies pointers, never subtrees; the mutating
/// operations un-share exactly the nodes they change (`Arc::make_mut`).
#[derive(Clone, Debug)]
pub(crate) struct ChildEntry<T> {
    pub mbr: Aabb,
    pub child: Arc<Node<T>>,
}

/// A tree node. All leaves sit at the same depth; `level` is 0 for leaves
/// and grows towards the root.
#[derive(Clone, Debug)]
pub(crate) enum Node<T> {
    Leaf(Vec<LeafEntry<T>>),
    Inner { level: usize, children: Vec<ChildEntry<T>> },
}

impl<T> Node<T> {
    pub fn level(&self) -> usize {
        match self {
            Node::Leaf(_) => 0,
            Node::Inner { level, .. } => *level,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Node::Leaf(entries) => entries.len(),
            Node::Inner { children, .. } => children.len(),
        }
    }

    /// Tight bounding box of the node's entries, `None` when empty.
    pub fn mbr(&self) -> Option<Aabb> {
        match self {
            Node::Leaf(entries) => {
                let mut it = entries.iter();
                let mut acc = it.next()?.mbr.clone();
                for e in it {
                    acc.merge(&e.mbr);
                }
                Some(acc)
            }
            Node::Inner { children, .. } => {
                let mut it = children.iter();
                let mut acc = it.next()?.mbr.clone();
                for c in it {
                    acc.merge(&c.mbr);
                }
                Some(acc)
            }
        }
    }
}
